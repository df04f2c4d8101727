#!/usr/bin/env bash
# End-to-end checks of psem_cli: each case runs the CLI on a script and
# compares its stdout and exit code with the expected ones.
#
# Usage: tests/cli_test.sh <path to psem_cli>
set -u

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

# check NAME WANT_EXIT WANT_STDOUT SCRIPT [FLAG...]
check() {
  local name=$1 want_exit=$2 want_out=$3 script=$4
  shift 4
  printf '%s\n' "$script" >"$work/script"
  local out code
  out=$("$cli" "$@" "$work/script" 2>"$work/stderr")
  code=$?
  if [[ "$out" != "$want_out" ]]; then
    echo "FAIL $name: stdout differs (want, then got):"
    diff <(printf '%s\n' "$want_out") <(printf '%s\n' "$out")
    failures=$((failures + 1))
  fi
  if [[ "$code" != "$want_exit" ]]; then
    echo "FAIL $name: exit code $code, want $want_exit"
    cat "$work/stderr"
    failures=$((failures + 1))
  fi
}

# E is a set: a repeated pd or fd keeps the number it was first given,
# and show lists each constraint once.
check duplicate-pd 0 "E1: A <= B
E2: C = A+D
E1: A <= B
E3: A <= C   (FPD for A -> C)
E3: A <= C   (FPD for A -> C)
E:
  E1: A <= B
  E2: C = A+D
  E3: A <= C
database:" "pd A <= B
pd C = A + D
pd A <= B
fd A -> C
fd A -> C
show"

# implies runs on the session's one engine, which sees every PD accepted
# between queries.
check warm-implies 0 "E1: A <= B
E2: B <= C
implied
not implied
E3: C <= A
implied
implied" "pd A <= B
pd B <= C
implies A <= C
implies C <= A
pd C <= A
implies C <= A
implies A*E <= C+E"

# --max-arcs bounds the session engine's closure: the query is undecided
# and the exit code is 6 (resource exhausted).
check max-arcs-trip 6 "E1: A <= B
undecided: arc budget exhausted: 6 arcs > max 3
  partial stats: |V| = 5, arcs = 6, passes = 1, aborted closures = 1" \
  "pd A <= B
implies A*C <= B+C" --max-arcs 3

# Without --snapshot-dir there is nothing to checkpoint; this is not an
# error.
check checkpoint-without-durability 0 \
  "durability is not enabled (--snapshot-dir)" "checkpoint"

# With durability, E survives the process: the second run recovers it,
# a re-added PD keeps its number, and implies answers on the recovered
# engine.
check durable-write 0 "E1: A <= B
E2: B <= C
checkpoint written" "pd A <= B
pd B <= C
checkpoint" --snapshot-dir "$work/state"
check durable-recover 0 "E1: A <= B
implied
E:
  E1: A <= B
  E2: B <= C
database:" "pd A <= B
implies A <= C
show" --snapshot-dir "$work/state"

# A parenthesis-free product of 10^5 factors is a tree 10^5 high; accepting
# it walks, prints and reads it without the native stack. The echoed PD is
# ~380 KB, so only the exit code and the prefix are compared.
factors=()
for ((i = 0; i < 100000; i++)); do factors+=("A$((i % 50))"); done
(
  IFS='*'
  printf 'pd %s <= A0\n' "${factors[*]}"
) >"$work/deep"
out=$("$cli" --deadline-ms 2000 "$work/deep" 2>"$work/stderr")
code=$?
if [[ "$code" != 0 || "$out" != "E1: A0*A1*"* ]]; then
  echo "FAIL deep-product: exit code $code, stdout starts '${out:0:40}'"
  head -c 2000 "$work/stderr"
  failures=$((failures + 1))
fi

if ((failures > 0)); then
  echo "$failures check(s) failed"
  exit 1
fi
echo "all cli checks passed"
