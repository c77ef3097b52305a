# The non-test code of Rust source files, one line per output line,
# prefixed with its file name and a tab:
#
#   awk -f .github/nontest.awk FILE...
#
# Dropped: every `#[cfg(test)]` item (through its closing line at the
# attribute's own indentation, so a `#[cfg(test)]` on one statement or
# helper drops only that), every `use` / `pub use` statement (multi-line
# ones too), every `//` comment, and blank lines. The reachability check
# ("Every pub fn is named outside its file") and the library-line count
# both read this text.

FNR == 1 { item = 0; inuse = 0 }

{ line = $0; text = line; sub(/^ */, "", text) }

# A `#[cfg(test)]` item: its attributes, its head, and, when the head
# does not finish it, every line up to the first one at the attribute's
# indentation that closes it (`}`, `});`) or ends a statement (`];`).
item == 0 && text == "#[cfg(test)]" { item = 1; ind = length(line) - length(text); next }
item == 1 {
    if (text ~ /^#\[/) next
    item = (text ~ /[;}]$/) ? 0 : 2
    next
}
item == 2 {
    if (length(line) - length(text) == ind && (text ~ /^}/ || text ~ /;$/)) item = 0
    next
}

inuse == 1 { if (line ~ /;/) inuse = 0; next }
text ~ /^(pub(\([a-z]+\))? )?use / { if (line !~ /;/) inuse = 1; next }

text ~ /^\/\// { next }
{ sub(/ +\/\/ .*$/, "", line) }
line ~ /^ *$/ { next }

{ print FILENAME "\t" line }
