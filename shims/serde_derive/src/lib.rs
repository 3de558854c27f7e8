#![forbid(unsafe_code)]

//! Offline stand-in for `serde_derive`.
//!
//! Parses the derive input token stream by hand (no `syn`/`quote` available
//! offline) and emits `Serialize`/`Deserialize` impls targeting the shim
//! serde crate's `Value` data model.  Supports the shapes this workspace
//! actually uses: named-field structs, newtype/tuple structs, and enums with
//! unit, newtype/tuple, and struct variants, plus `#[serde(with = "...")]`
//! on fields and newtype variants, and `#[serde(default)]` and
//! `#[serde(skip_serializing_if = "path")]` on named fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct FieldDef {
    name: String,
    with_module: Option<String>,
    /// `#[serde(default)]`: an absent field is `Default::default()`.
    default: bool,
    /// `#[serde(skip_serializing_if = "path")]`: the key is left out of the
    /// map when `path(&field)` is true.
    skip_if: Option<String>,
}

/// What the `#[serde(...)]` attributes on one item asked for.
#[derive(Debug, Default)]
struct SerdeAttrs {
    with_module: Option<String>,
    default: bool,
    skip_if: Option<String>,
}

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<FieldDef>),
}

#[derive(Debug)]
struct VariantDef {
    name: String,
    shape: Shape,
    with_module: Option<String>,
}

#[derive(Debug)]
enum TypeDef {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<VariantDef> },
}

/// Scan an attribute's bracket group for `serde(with = "module::path")`,
/// `serde(default)` and `serde(skip_serializing_if = "path")`.
fn scan_serde_attr(group: &proc_macro::Group, attrs: &mut SerdeAttrs) {
    let mut toks = group.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let inner = match toks.next() {
        Some(TokenTree::Group(g)) => g.stream(),
        _ => return,
    };
    let inner: Vec<TokenTree> = inner.into_iter().collect();
    // The `"path"` of a `key = "path"` item whose key sits at `i`.
    let path_after = |i: usize| match (inner.get(i + 1), inner.get(i + 2)) {
        (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
            Some(lit.to_string().trim_matches('"').to_string())
        }
        _ => None,
    };
    for (i, tok) in inner.iter().enumerate() {
        let TokenTree::Ident(id) = tok else { continue };
        match id.to_string().as_str() {
            "default" => attrs.default = true,
            "with" if attrs.with_module.is_none() => attrs.with_module = path_after(i),
            "skip_serializing_if" => attrs.skip_if = path_after(i),
            _ => {}
        }
    }
}

/// Split a token slice on top-level commas, tracking `<`/`>` depth so
/// generic arguments (`HashMap<String, V>`) don't split.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Consume leading attributes (returning what their `serde(...)` asked for)
/// and a visibility qualifier from a token slice; return the index past them.
fn skip_meta(tokens: &[TokenTree]) -> (usize, SerdeAttrs) {
    let mut i = 0;
    let mut attrs = SerdeAttrs::default();
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    scan_serde_attr(g, &mut attrs);
                    i += 2;
                    continue;
                }
                break;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }
    (i, attrs)
}

fn parse_named_fields(group: &proc_macro::Group) -> Vec<FieldDef> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let (start, attrs) = skip_meta(&chunk);
            let name = match &chunk[start] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("expected field name, got {other}"),
            };
            FieldDef {
                name,
                with_module: attrs.with_module,
                default: attrs.default,
                skip_if: attrs.skip_if,
            }
        })
        .collect()
}

fn parse_shape_after_name(tokens: &[TokenTree], i: usize) -> Shape {
    match tokens.get(i) {
        None => Shape::Unit,
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Shape::Tuple(split_commas(&inner).into_iter().filter(|c| !c.is_empty()).count())
        }
        Some(other) => panic!("unexpected token after type name: {other}"),
    }
}

fn parse_input(input: TokenStream) -> TypeDef {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (mut i, _) = skip_meta(&tokens);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("generic types are not supported by the offline serde_derive shim");
        }
    }
    match kind.as_str() {
        "struct" => TypeDef::Struct { name, shape: parse_shape_after_name(&tokens, i) },
        "enum" => {
            let body = match &tokens[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => g,
                other => panic!("expected enum body, got {other}"),
            };
            let body_tokens: Vec<TokenTree> = body.stream().into_iter().collect();
            let variants = split_commas(&body_tokens)
                .into_iter()
                .filter(|chunk| !chunk.is_empty())
                .map(|chunk| {
                    let (start, attrs) = skip_meta(&chunk);
                    let vname = match &chunk[start] {
                        TokenTree::Ident(id) => id.to_string(),
                        other => panic!("expected variant name, got {other}"),
                    };
                    let shape = parse_shape_after_name(&chunk, start + 1);
                    VariantDef { name: vname, shape, with_module: attrs.with_module }
                })
                .collect();
            TypeDef::Enum { name, variants }
        }
        other => panic!("cannot derive for {other}"),
    }
}

// ---------------------------------------------------------------------------
// Codegen helpers
// ---------------------------------------------------------------------------

fn ser_field_expr(access: &str, with_module: &Option<String>) -> String {
    match with_module {
        Some(m) => format!("{m}::serialize({access}, serde::value::ValueSerializer)?"),
        None => format!("serde::Serialize::to_value({access})?"),
    }
}

fn de_field_expr(value_expr: &str, with_module: &Option<String>) -> String {
    match with_module {
        Some(m) => format!(
            "{m}::deserialize(serde::value::ValueDeserializer::new(({value_expr}).clone()))?"
        ),
        None => format!("serde::Deserialize::from_value({value_expr})?"),
    }
}

fn named_fields_to_map(fields: &[FieldDef], access_prefix: &str) -> String {
    let entry = |f: &FieldDef| {
        let access = format!("&{access_prefix}{}", f.name);
        format!("(String::from(\"{}\"), {})", f.name, ser_field_expr(&access, &f.with_module))
    };
    if fields.iter().all(|f| f.skip_if.is_none()) {
        let entries: Vec<String> = fields.iter().map(entry).collect();
        return format!("serde::Value::Map(vec![{}])", entries.join(", "));
    }
    // Some keys are conditional: push one by one.
    let pushes: String = (fields.iter())
        .map(|f| match &f.skip_if {
            Some(skip) => {
                format!("if !{skip}(&{access_prefix}{}) {{ __map.push({}); }} ", f.name, entry(f))
            }
            None => format!("__map.push({}); ", entry(f)),
        })
        .collect();
    format!("{{ let mut __map = Vec::new(); {pushes}serde::Value::Map(__map) }}")
}

fn named_fields_from_map(fields: &[FieldDef], map_expr: &str) -> String {
    fields
        .iter()
        .map(|f| {
            if f.default {
                let present = de_field_expr("__field", &f.with_module);
                return format!(
                    "{}: match {map_expr}.get(\"{}\") {{ Some(__field) => {present}, \
                     None => Default::default() }}",
                    f.name, f.name
                );
            }
            let value_expr =
                format!("{map_expr}.get(\"{}\").unwrap_or(&serde::Value::Null)", f.name);
            format!("{}: {}", f.name, de_field_expr(&value_expr, &f.with_module))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Derive entry points
// ---------------------------------------------------------------------------

/// Derive `serde::Serialize` (shim data model).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_input(input);
    let body = match &def {
        TypeDef::Struct { name, shape } => {
            let expr = match shape {
                Shape::Unit => "Ok(serde::Value::Null)".to_string(),
                Shape::Tuple(1) => "serde::Serialize::to_value(&self.0)".to_string(),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("serde::Serialize::to_value(&self.{i})?"))
                        .collect();
                    format!("Ok(serde::Value::Seq(vec![{}]))", items.join(", "))
                }
                Shape::Named(fields) => {
                    format!("Ok({})", named_fields_to_map(fields, "self."))
                }
            };
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> Result<serde::Value, serde::Error> {{\n\
                         {expr}\n\
                     }}\n\
                 }}"
            )
        }
        TypeDef::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vname} => Ok(serde::Value::Str(String::from(\"{vname}\"))),"
                        ),
                        Shape::Tuple(1) => {
                            let inner = ser_field_expr("__f0", &v.with_module);
                            format!(
                                "{name}::{vname}(__f0) => \
                                 Ok(serde::Value::Map(vec![(String::from(\"{vname}\"), {inner})])),"
                            )
                        }
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})?"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => Ok(serde::Value::Map(vec![(\
                                 String::from(\"{vname}\"), \
                                 serde::Value::Seq(vec![{}]))])),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let map = named_fields_to_map(fields, "");
                            format!(
                                "{name}::{vname} {{ {} }} => Ok(serde::Value::Map(vec![(\
                                 String::from(\"{vname}\"), {map})])),",
                                binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> Result<serde::Value, serde::Error> {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    body.parse().expect("serde_derive shim: generated Serialize impl failed to parse")
}

/// Derive `serde::Deserialize` (shim data model).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_input(input);
    let body = match &def {
        TypeDef::Struct { name, shape } => {
            let expr = match shape {
                Shape::Unit => format!(
                    "match __v {{ serde::Value::Null => Ok({name}), \
                     __other => Err(serde::Error::msg(format!(\
                     \"expected null for {name}, got {{:?}}\", __other))) }}"
                ),
                Shape::Tuple(1) => {
                    format!("Ok({name}(serde::Deserialize::from_value(__v)?))")
                }
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("serde::Deserialize::from_value(&__items[{i}])?"))
                        .collect();
                    format!(
                        "match __v {{\n\
                             serde::Value::Seq(__items) if __items.len() == {n} => \
                                 Ok({name}({})),\n\
                             __other => Err(serde::Error::msg(format!(\
                                 \"expected {n}-element sequence for {name}, got {{:?}}\", \
                                 __other))),\n\
                         }}",
                        items.join(", ")
                    )
                }
                Shape::Named(fields) => {
                    let inits = named_fields_from_map(fields, "__v");
                    format!(
                        "match __v {{\n\
                             serde::Value::Map(_) => Ok({name} {{ {inits} }}),\n\
                             __other => Err(serde::Error::msg(format!(\
                                 \"expected map for {name}, got {{:?}}\", __other))),\n\
                         }}"
                    )
                }
            };
            format!(
                "impl<'de> serde::Deserialize<'de> for {name} {{\n\
                     fn from_value(__v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                         {expr}\n\
                     }}\n\
                 }}"
            )
        }
        TypeDef::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| format!("\"{0}\" => Ok({name}::{0}),", v.name))
                .collect();
            let payload_arms: Vec<String> = variants
                .iter()
                .filter(|v| !matches!(v.shape, Shape::Unit))
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Tuple(1) => {
                            let inner = de_field_expr("__content", &v.with_module);
                            format!("\"{vname}\" => Ok({name}::{vname}({inner})),")
                        }
                        Shape::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("serde::Deserialize::from_value(&__items[{i}])?"))
                                .collect();
                            format!(
                                "\"{vname}\" => match __content {{\n\
                                     serde::Value::Seq(__items) if __items.len() == {n} => \
                                         Ok({name}::{vname}({})),\n\
                                     __other => Err(serde::Error::msg(format!(\
                                         \"bad content for variant {vname}: {{:?}}\", \
                                         __other))),\n\
                                 }},",
                                items.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let inits = named_fields_from_map(fields, "__content");
                            format!("\"{vname}\" => Ok({name}::{vname} {{ {inits} }}),")
                        }
                        Shape::Unit => unreachable!(),
                    }
                })
                .collect();
            format!(
                "impl<'de> serde::Deserialize<'de> for {name} {{\n\
                     fn from_value(__v: &serde::Value) -> Result<Self, serde::Error> {{\n\
                         match __v {{\n\
                             serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {}\n\
                                 __other => Err(serde::Error::msg(format!(\
                                     \"unknown unit variant {{}} for {name}\", __other))),\n\
                             }},\n\
                             serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                                 let (__tag, __content) = &__entries[0];\n\
                                 match __tag.as_str() {{\n\
                                     {}\n\
                                     __other => Err(serde::Error::msg(format!(\
                                         \"unknown variant {{}} for {name}\", __other))),\n\
                                 }}\n\
                             }}\n\
                             __other => Err(serde::Error::msg(format!(\
                                 \"expected variant for {name}, got {{:?}}\", __other))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                payload_arms.join("\n")
            )
        }
    };
    body.parse().expect("serde_derive shim: generated Deserialize impl failed to parse")
}
