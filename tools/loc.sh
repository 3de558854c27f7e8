#!/bin/sh
# Non-test line count and `pub fn` count of the library sources.
#
# Over every `.rs` file under crates/*/src and src:
#   loc     lines that are neither blank nor a `//` comment (doc comments
#           included) and lie outside the file's test module: a
#           `#[cfg(test)]` line directly followed by a `mod` line starts it,
#           and it runs to the end of the file.  A `#[cfg(test)]` on any
#           other item is not counted itself and hides nothing, so test-only
#           helpers belong inside the test module;
#   pub_fn  lines containing `pub fn `, anywhere in the file.
# Informational: the numbers are printed, never compared.
#
#   tools/loc.sh        # prints "loc <n>" and "pub_fn <n>"
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | sort | xargs awk '
    /pub fn / { pub_fn++ }
    FNR == 1 { in_tests = 0; held = 0 }
    held {
        held = 0
        if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) in_tests = 1
    }
    !in_tests && /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
    in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { loc++ }
    END { printf "loc %d\npub_fn %d\n", loc, pub_fn }
'
