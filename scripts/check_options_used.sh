#!/usr/bin/env bash
# Lint option fields against the rule documented in DESIGN.md
# ("Options"): an option exists only while a caller sets it. Every
# non-string field of a `struct ...Options` under src/ must be assigned
# somewhere in src/, tools/, bench/, tests/, examples/ or servebench/,
# as `.field = x`, `.field op= x`, a designated initializer
# (`{.field = x}`), or, for a field holding another Options struct,
# `.field.sub = x`. A field nothing assigns is a constant: make it a
# named constexpr next to its reader instead. String fields (names and
# paths) are deployment settings and are not checked. A write through
# a data member (`options_.field = x`, any object whose name ends in
# `_`) is a component changing its own copy, not a caller setting the
# option, and does not count. Fields are matched by name, so an
# assignment to a same-named field of another type also counts.
#
# Usage: scripts/check_options_used.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

status=0
count=0

# Emit "file:line:name" for each top-level field of every Options
# struct in the headers under src/.
fields() {
  find src -name '*.h' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { depth = 0; in_opts = 0 }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      if (!in_opts && line ~ /struct [A-Za-z_]*Options[[:space:]]*\{/) {
        in_opts = 1; depth = 0
      }
      if (in_opts) {
        if (depth == 1 &&
            line ~ /^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>, *&]*[A-Za-z0-9_>*&][[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*(=.*|\{.*\})?;[[:space:]]*$/ &&
            line !~ /^[[:space:]]*(static|using|typedef|return|friend)[[:space:]]/ &&
            line !~ /std::string[[:space:]]/) {
          decl = line
          sub(/[[:space:]]*(=.*|\{.*\})?;[[:space:]]*$/, "", decl)
          n = split(decl, parts, /[[:space:]*&]+/)
          print FILENAME ":" FNR ":" parts[n]
        }
        opens = gsub(/\{/, "{", line)
        closes = gsub(/\}/, "}", line)
        depth += opens - closes
        if (depth <= 0 && (opens > 0 || closes > 0)) in_opts = 0
      }
    }'
}

dirs=()
for d in src tools bench tests examples servebench; do
  [ -d "$d" ] && dirs+=("$d")
done

while IFS= read -r hit; do
  [ -n "$hit" ] || continue
  count=$((count + 1))
  name="${hit##*:}"
  loc="${hit%:*}"
  if ! grep -rhoE \
      "[A-Za-z0-9_]*(\.|->)${name}(\.[a-z_][a-z0-9_]*)*[[:space:]]*([-+*/%|&^]|<<|>>)?=([^=]|$)" \
      --include='*.cc' --include='*.cpp' --include='*.h' "${dirs[@]}" |
      grep -vqE '^[A-Za-z0-9_]*_(\.|->)'; then
    echo "UNUSED OPTION  ${loc}: ${name} — nothing assigns it; make it a constant"
    status=1
  fi
done < <(fields)

if [ "$status" -eq 0 ]; then
  echo "check_options_used: OK (${count} option fields, each assigned by a caller)"
fi
exit "$status"
