#![forbid(unsafe_code)]

//! Offline stand-in for the `serde` crate.
//!
//! The real serde models serialization through a visitor-based data model;
//! this workspace only ever round-trips its own types through JSON
//! (`serde_json`), so this shim collapses the data model to one concrete
//! [`Value`] tree.  The public names (`Serialize`, `Deserialize`,
//! `Serializer`, `Deserializer`, `ser::Error`, `de::Error`, the derive
//! macros) line up with real serde so the workspace source compiles
//! unchanged; swapping the real crate back in later is a Cargo.toml edit.

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// The single in-memory data model every type serializes into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also `None`, unit).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative (or any signed) integer.
    Int(i64),
    /// Non-negative integer (kept separate so `u64::MAX` survives).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence / array.
    Seq(Vec<Value>),
    /// Map with string keys (struct fields, maps, enum tagging).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k.as_str() == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The one error type shared by serialization and deserialization.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Construct from a message.
    pub fn msg(m: impl Into<String>) -> Error {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization-side error trait (`serde::ser::Error` in real serde).
pub mod ser {
    /// Error constructor used by generic serialization code.
    pub trait Error: Sized + std::error::Error {
        /// Build an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::Error::msg(msg.to_string())
        }
    }
}

/// Deserialization-side error trait (`serde::de::Error` in real serde).
pub mod de {
    /// Error constructor used by generic deserialization code.
    pub trait Error: Sized + std::error::Error {
        /// Build an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::Error::msg(msg.to_string())
        }
    }
}

/// A type that can serialize itself into the [`Value`] data model.
pub trait Serialize {
    /// Convert to the data model.
    fn to_value(&self) -> Result<Value, Error>;

    /// Drive a serializer (generic entry point, matching real serde's
    /// `Serialize::serialize` signature shape).
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.to_value() {
            Ok(v) => serializer.accept_value(v),
            Err(e) => Err(<S::Error as ser::Error>::custom(e)),
        }
    }
}

/// A sink for [`Value`]s.
pub trait Serializer: Sized {
    /// Successful output.
    type Ok;
    /// Error type.
    type Error: ser::Error;
    /// Consume a fully-built value.
    fn accept_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A source of [`Value`]s.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;
    /// Produce the value to deserialize from.
    fn take_value(self) -> Result<Value, Self::Error>;
}

/// A type that can rebuild itself from the [`Value`] data model.
pub trait Deserialize<'de>: Sized {
    /// Convert from the data model.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Drive a deserializer (generic entry point).
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.take_value()?;
        Self::from_value(&v).map_err(<D::Error as de::Error>::custom)
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

fn type_err<T>(want: &str, got: &Value) -> Result<T, Error> {
    Err(Error::msg(format!("expected {want}, got {got:?}")))
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Result<Value, Error> {
                Ok(Value::UInt(*self as u64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: u64 = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Float(f)
                        if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 =>
                    {
                        *f as u64
                    }
                    other => return type_err("unsigned integer", other),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Result<Value, Error> {
                let n = *self as i64;
                Ok(if n >= 0 { Value::UInt(n as u64) } else { Value::Int(n) })
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) if *n <= i64::MAX as u64 => *n as i64,
                    Value::Float(f)
                        if f.fract() == 0.0
                            && *f >= i64::MIN as f64
                            && *f <= i64::MAX as f64 =>
                    {
                        *f as i64
                    }
                    other => return type_err("integer", other),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Float(*self))
    }
}
impl<'de> Deserialize<'de> for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            other => type_err("number", other),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Float(*self as f64))
    }
}
impl<'de> Deserialize<'de> for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Bool(*self))
    }
}
impl<'de> Deserialize<'de> for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => type_err("bool", other),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Str(self.to_string()))
    }
}
impl<'de> Deserialize<'de> for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => type_err("single-char string", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Str(self.clone()))
    }
}
impl<'de> Deserialize<'de> for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Str(self.to_owned()))
    }
}

// `Value` serializes as itself, so opaque already-modelled state (e.g.
// detector checkpoints captured via `snapshot_state()`) can be embedded in
// larger serializable structs without re-encoding.
impl Serialize for Value {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(self.clone())
    }
}
impl<'de> Deserialize<'de> for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
}
impl<'de> Deserialize<'de> for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => type_err("null", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Reference / smart-pointer impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Result<Value, Error> {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Result<Value, Error> {
        (**self).to_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Result<Value, Error> {
        (**self).to_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Result<Value, Error> {
        (**self).to_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Rc::new)
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Result<Value, Error> {
        match self {
            Some(v) => v.to_value(),
            None => Ok(Value::Null),
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Seq(self.iter().map(|x| x.to_value()).collect::<Result<_, _>>()?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Result<Value, Error> {
        self.as_slice().to_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => type_err("sequence", other),
        }
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Seq(self.iter().map(|x| x.to_value()).collect::<Result<_, _>>()?))
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(VecDeque::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Result<Value, Error> {
        self.as_slice().to_value()
    }
}
impl<'de, T: Deserialize<'de> + Copy + Default, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        if items.len() != N {
            return Err(Error::msg(format!("expected array of {N}, got {}", items.len())));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Result<Value, Error> {
                Ok(Value::Seq(vec![$(self.$idx.to_value()?),+]))
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(items) => {
                        let expected = [$($idx),+].len();
                        if items.len() != expected {
                            return Err(Error::msg(format!(
                                "expected tuple of {expected}, got {}", items.len()
                            )));
                        }
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => type_err("tuple sequence", other),
                }
            }
        }
    )+};
}
impl_tuple! {
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Result<Value, Error> {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.to_value()?)))
            .collect::<Result<_, Error>>()?;
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Value::Map(entries))
    }
}
impl<'de, V: Deserialize<'de>> Deserialize<'de> for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => {
                entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => type_err("map", other),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Result<Value, Error> {
        Ok(Value::Map(
            self.iter()
                .map(|(k, v)| Ok((k.clone(), v.to_value()?)))
                .collect::<Result<_, Error>>()?,
        ))
    }
}
impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => {
                entries.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => type_err("map", other),
        }
    }
}

impl<T: Serialize + Ord> Serialize for HashSet<T> {
    fn to_value(&self) -> Result<Value, Error> {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        Ok(Value::Seq(items.into_iter().map(|s| s.to_value()).collect::<Result<_, _>>()?))
    }
}
impl<'de, T: Deserialize<'de> + Eq + std::hash::Hash> Deserialize<'de> for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(|v| v.into_iter().collect())
    }
}
