#!/usr/bin/env bash
# Lint metric and span names against the scheme documented in DESIGN.md
# ("Observability"): every name passed to SAGA_COUNTER / SAGA_GAUGE /
# SAGA_LATENCY / SAGA_STAGE / obs::ScopedSpan, or as a string literal to
# Registry::Global().counter / gauge / latency, must have exactly three
# lower_snake_case segments, `subsystem.component.metric`, and latency
# histogram names must end in `_ns`. Names read outside src/ must be
# registered by src/ (see the last check).
#
# Usage: scripts/check_metric_names.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

segment='[a-z0-9_]+'
name_re="^${segment}\.${segment}\.${segment}$"
# Background-maintenance metrics nest one level deeper under the kv
# component: storage.kv.bg.<metric>. This is the one blessed 4-segment
# family — a new nesting must be added here deliberately, exactly like
# a new subsystem stem below.
nested_re="^storage\.kv\.bg\.${segment}$"
# Known subsystem stems (first segment). A new subsystem must be added
# here deliberately — a typo'd stem ("integirty.scrub.passes") would
# otherwise mint a fresh metric family that no dashboard watches.
subsystems='annotation|bench|cli|embedding|integrity|obs|odke|ondevice|replication|resource|serving|storage|version'
subsystem_re="^(${subsystems})\."
status=0

# Emit "file:line:name" for every literal passed to the given call.
extract() {
  local call="$1"
  grep -rnoE "${call}\(\"[^\"]+\"" --include='*.cc' --include='*.h' \
      src bench tools 2>/dev/null |
    sed -E "s/${call}\(\"([^\"]+)\"/\1/"
}

check() {
  local call="$1" extra_re="${2:-}"
  local label="${call%% *}"  # strip the identifier regex from the message
  label="${label//\\/}"     # and the regex escapes
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    local name="${hit##*:}"
    local loc="${hit%:*}"
    if ! [[ "$name" =~ $name_re || "$name" =~ $nested_re ]]; then
      echo "BAD NAME  ${loc}: ${label}(\"${name}\") — want subsystem.component.metric"
      status=1
    elif ! [[ "$name" =~ $subsystem_re ]]; then
      echo "BAD STEM  ${loc}: ${label}(\"${name}\") — unknown subsystem; known: ${subsystems}"
      status=1
    elif [ -n "$extra_re" ] && ! [[ "$name" =~ $extra_re ]]; then
      echo "BAD NAME  ${loc}: ${label}(\"${name}\") — latency names must end in _ns"
      status=1
    fi
  done < <(extract "$call")
}

check 'SAGA_COUNTER'
check 'SAGA_GAUGE'
check 'SAGA_LATENCY' '_ns$'
check 'SAGA_STAGE'                   # its histogram is the name + "_ns"
check 'Registry::Global\(\)\.counter'
check 'Registry::Global\(\)\.gauge'
check 'Registry::Global\(\)\.latency' '_ns$'
check 'obs::ScopedSpan [a-zA-Z_]+'   # named locals: obs::ScopedSpan span("...")
check 'obs::ScopedSpan'              # temporaries / ctor-style

# Circuit-breaker metric stems. A breaker registers <stem>_state /
# <stem>_opened / <stem>_rejected, so the stem itself must be
# `subsystem.breaker.name` (middle segment literally "breaker") for the
# derived names — e.g. serving.breaker.ann_state — to stay inside the
# scheme. Covers direct construction and make_unique.
stem_re="^${segment}\.breaker\.${segment}$"
while IFS= read -r hit; do
  [ -n "$hit" ] || continue
  name="${hit##*:}"
  loc="${hit%:*}"
  if ! [[ "$name" =~ $stem_re ]]; then
    echo "BAD STEM  ${loc}: breaker stem \"${name}\" — want subsystem.breaker.name"
    status=1
  fi
done < <(grep -rnoE 'CircuitBreaker( [a-zA-Z_]+)?>?\("[^"]+"' \
    --include='*.cc' --include='*.h' src tests bench tools 2>/dev/null |
  sed -E 's/CircuitBreaker( [a-zA-Z_]+)?>?\("([^"]+)"/\2/')

# Reads must name a registered metric. Registry::counter() registers a
# name on lookup, so a misspelled read in a test returns 0 and passes an
# EXPECT_EQ(delta, 0). Every counter, gauge or latency name that tests/,
# bench/, tools/ or servebench/ reads through SAGA_COUNTER / SAGA_GAUGE /
# SAGA_LATENCY or a `.counter("…")`-style registry call (Registry::Global()
# or an alias such as `reg`) must be registered by src/: a literal given to
# those macros or registry calls, a SAGA_STAGE name plus `_ns`, or a
# circuit-breaker stem (constructed anywhere) plus one of its suffixes.
# Names under the `test.` and `bench.` stems belong to the test or bench
# that writes them.
registered="$(
  {
    grep -rhoE '(SAGA_(COUNTER|GAUGE|LATENCY)|(counter|gauge|latency))\("[^"]+"' \
        --include='*.cc' --include='*.h' src 2>/dev/null |
      sed -E 's/.*\("([^"]+)"/\1/'
    grep -rhoE 'SAGA_STAGE\("[^"]+"' --include='*.cc' --include='*.h' src \
        2>/dev/null | sed -E 's/.*\("([^"]+)"/\1_ns/'
    grep -rhoE 'CircuitBreaker( [a-zA-Z_]+)?>?\("[^"]+"' \
        --include='*.cc' --include='*.h' src tests bench tools 2>/dev/null |
      sed -E 's/.*\("([^"]+)"/\1/' |
      while IFS= read -r stem; do
        for suffix in state opened rejected failures successes; do
          echo "${stem}_${suffix}"
        done
      done
  } | sort -u
)"
while IFS= read -r hit; do
  [ -n "$hit" ] || continue
  name="${hit##*:}"
  loc="${hit%:*}"
  case "$name" in test.* | bench.*) continue ;; esac
  if ! grep -qxF -- "$name" <<<"$registered"; then
    echo "UNREGISTERED  ${loc}: \"${name}\" — no src/ code registers it"
    status=1
  fi
done < <(grep -rnoE \
    '(SAGA_(COUNTER|GAUGE|LATENCY)|(\.|->)(counter|gauge|latency))\("[^"]+"' \
    --include='*.cc' --include='*.h' tests bench tools servebench 2>/dev/null |
  sed -E 's/:[^:]*\("([^"]+)"$/:\1/')

if [ "$status" -eq 0 ]; then
  echo "check_metric_names: OK (all obs names follow subsystem.component.metric)"
fi
exit "$status"
