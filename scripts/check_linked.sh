#!/usr/bin/env bash
# Check the rule documented in DESIGN.md ("Public API"): a public src/
# function exists only while a production binary links it.
#
# The production binaries (saga_cli, the examples, the benches and
# servebench) are rebuilt in their own build directory at -O0, so every
# call stays a call (a helper inlined into its callers would otherwise
# look unused), with -fkeep-inline-functions, so a function defined
# inline in a header is emitted too, and with -ffunction-sections and
# --gc-sections, so a function no binary reaches is dropped at link
# time. Line tables (-g1) tell which file defines each function. A
# function named by a mangled symbol in servebench/wrap.cc counts as
# linked: servebench's release build wraps it with --wrap, which keeps
# it, though --gc-sections here may drop it. The linker alone decides,
# symbol by mangled symbol, so each constructor and each overload is
# checked on its own: each saga:: function the src/ libraries define
# and no binary keeps, except the allowlist below, is public API only
# tests call. Delete it or give it a production caller. A template
# nobody instantiates is never emitted, so templates are out of reach
# of this check.
#
# Usage: scripts/check_linked.sh [repo-root]
set -u -o pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)" || exit 2
cd "$root" || exit 2
build="$root/build-linked"
jobs="$(nproc)"

# Kept although no production binary links them, each with its reason.
# "harness": a control the seeded chaos loops drive to break or heal the
# system under test. "value": value semantics or a format production
# reads; dropping it would change the type, not just its callers.
# "probe: <test>: <fact>": the one way that test can see a fact it
# asserts about production state.
allowlist() {
  cat <<'EOF'
saga::FaultInjector::Seed                      harness: chaos loops seed the fault schedule
saga::FaultInjector::fires                     harness: fault tests count the faults that fired
saga::replication::SimTransport::Heal          harness: chaos loops heal one link
saga::replication::SimTransport::Partition     harness: chaos loops cut one link (via PartitionSides)
saga::replication::Replica::Restart            harness: chaos loops restart a crashed replica
saga::replication::ReplicaGroup::Restart       harness: chaos loops restart a crashed replica
saga::replication::ReplicaGroup::PartitionSides harness: chaos loops split the group
saga::replication::Replica::log                probe: replication_test: the leader's commit covers its log; a restarted replica's log comes back from its WAL
saga::serving::AdmissionController::Ticket::Ticket value: the move constructor of a move-only RAII handle whose move assignment is linked
saga::serving::EmbeddingService::index         probe: serving_test, version_swap_test: the index reads the store's rows in place
saga::ann::VectorIndex::rows                   probe: serving_test, version_swap_test: the index reads the store's rows in place
saga::kg::Value::Hash                          value: hash of a kg::Value, with operator==
saga::kg::Value::kind                          value: the Kind tag of a kg::Value the .kg format stores
saga::kg::Value::bool_value                    value: accessor of the kBool kind the .kg format stores
saga::kg::Value::double_value                  value: accessor of the kDouble kind the .kg format stores
saga::kg::Value::is_literal                    value: kind predicate over the kinds the .kg format stores
saga::kg::Value::is_numeric                    value: kind predicate over the kinds the .kg format stores
saga::Status::IsAlreadyExists                  value: Status predicate for one StatusCode
saga::Status::IsNotFound                       value: Status predicate for one StatusCode
saga::Status::IsInvalidArgument                value: Status predicate for one StatusCode
saga::Status::IsIOError                        value: Status predicate for one StatusCode
saga::Status::IsUnavailable                    value: Status predicate for one StatusCode
saga::Status::IsFsyncGate                      value: Status predicate for one StatusOrigin
saga::Status::OutOfRange                       value: Status factory for one StatusCode
saga::Status::Unimplemented                    value: Status factory for one StatusCode
EOF
}

targets=(saga_cli)
for f in examples/*.cpp bench/bench_*.cc; do
  f="$(basename "$f")"
  targets+=("${f%.*}")
done

flags=(-DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS_RELEASE="-O0"
  -DCMAKE_CXX_FLAGS="-g1 -ffunction-sections -fkeep-inline-functions"
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")
log="$build/check_linked.log"
# servebench is its own CMake project, built with the same flags.
{ cmake -S . -B "$build" "${flags[@]}" >/dev/null &&
  cmake -S servebench -B "$build/servebench" "${flags[@]}" >/dev/null; } ||
  exit 2
{ cmake --build "$build" -j "$jobs" --target "${targets[@]}" &&
  cmake --build "$build/servebench" -j "$jobs" --target servebench; } \
  >"$log" 2>&1 || { tail -40 "$log"; exit 2; }

# "<defining file without extension> <mangled symbol> <function>
# <file:line>" for each saga:: function, constructors included, a src/
# library emits, out of line or inline.
defined() {
  nm -l --defined-only "$build"/src/*/libsaga_*.a 2>/dev/null |
    awk -F '\t' -v root="$root/" '
      NF == 2 && $1 ~ / [TW] / {
        n = split($1, f, " "); src = $2
        if (index(src, root) == 1) src = substr(src, length(root) + 1)
        if (src !~ /^src\//) next
        own = src
        sub(/\.(h|cc|cpp):[0-9]+$/, "", own)
        print own, f[n], src
      }' >"$tmp/symbols"
  cut -d ' ' -f 2 "$tmp/symbols" | c++filt -p |
    paste -d ' ' "$tmp/symbols" - |
    awk '$4 ~ /^saga::/ && $0 !~ /anonymous|lambda|operator|~|</ {
      print $1, $2, $4, $3
    }'
}

bins=("$build/servebench/servebench")
for t in "${targets[@]}"; do
  bin="$(find "$build" -maxdepth 2 -type f -name "$t" -perm -u+x)"
  [ -n "$bin" ] || { echo "check_linked: no binary for $t" >&2; exit 2; }
  bins+=("$bin")
done

# Every mangled function symbol a production binary keeps, and each one
# servebench wraps (read as servebench/CMakeLists.txt reads them).
linked() {
  {
    nm --defined-only "${bins[@]}" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
    grep -oE '"_Z[A-Za-z0-9_]+"' servebench/wrap.cc | tr -d '"'
  } | sort -u
}

status=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
linked >"$tmp/linked"
defined | sort -u -k2,2 >"$tmp/defined"
[ -s "$tmp/defined" ] ||
  { echo "check_linked: no saga:: function found in $build/src" >&2; exit 2; }
allowlist | awk '{ print $1 }' | sort -u >"$tmp/allowed"

awk 'NR == FNR { kept[$1] = 1; next } !($2 in kept)' \
  "$tmp/linked" "$tmp/defined" >"$tmp/candidates"
touch "$tmp/unlinked" "$tmp/report"
while read -r own sym fn src; do
  # A constructor the compiler defines belongs to its type: an implicit
  # one is placed on the class head, which does not spell `Name(`, and a
  # defaulted one says `= default`.
  name="${fn##*::}"
  type="${fn%::*}"
  if [ "${type##*::}" = "$name" ]; then
    line="$(sed -n "${src##*:}p" "${src%:*}")"
    [[ "$line" != *"$name("* || "$line" == *"= default"* ]] && continue
  fi
  echo "$fn" >>"$tmp/unlinked"
  # An allowlist entry names a function and covers each of its overloads.
  grep -qxF "$fn" "$tmp/allowed" && continue
  echo "UNLINKED  ${own}: $(c++filt "$sym") — no production binary links it; delete it or give it a production caller" >>"$tmp/report"
done <"$tmp/candidates"
# A constructor's complete- and base-object symbols name one function.
count="$(sort -u "$tmp/unlinked" | wc -l)"
if [ -s "$tmp/report" ]; then
  sort -u "$tmp/report"
  status=1
fi

# An allowlist entry no candidate matches is stale: it was linked,
# deleted or renamed since.
while read -r fn; do
  grep -qxF "$fn" "$tmp/unlinked" && continue
  echo "STALE     allowlist entry ${fn} — not an unlinked function any more; drop it from the allowlist"
  status=1
done <"$tmp/allowed"

if [ "$status" -eq 0 ]; then
  echo "check_linked: OK (${count} unlinked names, each allowlisted with a reason)"
fi
exit "$status"
