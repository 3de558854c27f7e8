#!/bin/sh
# Non-test line count and `pub fn` count of the library sources.
#
# Over every `.rs` file under crates/*/src and src:
#   loc     lines before the file's first `#[cfg(test)]` that are neither
#           blank nor a `//` comment (doc comments included);
#   pub_fn  lines containing `pub fn `, anywhere in the file.
# Informational: the numbers are printed, never compared.
#
#   tools/loc.sh        # prints "loc <n>" and "pub_fn <n>"
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | sort | xargs awk '
    /pub fn / { pub_fn++ }
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { loc++ }
    END { printf "loc %d\npub_fn %d\n", loc, pub_fn }
'
