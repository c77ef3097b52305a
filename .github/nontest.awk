# The non-test code of Rust source files, one line per output line,
# prefixed with its file name and a tab:
#
#   awk -f .github/nontest.awk FILE...
#
# Dropped: every `#[cfg(test)]` item (through its closing line at the
# attribute's own indentation, so a `#[cfg(test)]` on one statement or
# helper drops only that), every `use` / `pub use` statement (multi-line
# ones too), every `//` comment, and blank lines. The contents of string
# literals are blanked (`"…"` with its escapes, `r"…"` and `r#"…"#`,
# multi-line ones too; a `'"'` char literal starts none), so a name
# spelled in a string is not code. The reachability check ("Every pub fn
# is named outside its file") and the library-line count both read this
# text.

FNR == 1 { item = 0; inuse = 0; instr = 0 }

# `s` with every string literal's contents removed. `instr` is set while a
# literal is open at the end of a line, and `delim` is its closing
# delimiter: `"`, or `"` and the raw string's hashes. A line that starts
# inside a literal keeps its indentation, which the test-item rules read.
function blank(s,    out, i, c, rest) {
    match(s, /^ */)
    out = instr ? substr(s, 1, RLENGTH) : ""
    for (i = 1; i <= length(s); ) {
        c = substr(s, i, 1)
        if (instr) {
            if (delim == "\"" && c == "\\") { i += 2; continue }
            if (substr(s, i, length(delim)) == delim) {
                out = out delim; i += length(delim); instr = 0; continue
            }
            i++; continue
        }
        rest = substr(s, i)
        if (rest ~ /^\/\//) return out rest
        if (match(rest, /^'(\\.|[^\\'])'/)) {
            out = out substr(rest, 1, RLENGTH); i += RLENGTH; continue
        }
        if (match(rest, /^r#*"/) && substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/) {
            delim = "\"" substr(rest, 2, RLENGTH - 2)
            out = out substr(rest, 1, RLENGTH); i += RLENGTH; instr = 1; continue
        }
        if (c == "\"") { delim = c; instr = 1 }
        out = out c; i++
    }
    return out
}

{ line = blank($0); text = line; sub(/^ */, "", text) }

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
