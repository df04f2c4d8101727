#!/usr/bin/env bash
# Kill -9 crash-recovery stress for the psem_cli durability subsystem
# (--snapshot-dir). Each round:
#
#   1. generates a seeded PD stream + implication query battery,
#   2. computes reference verdicts with a durability-free run (the CLI's
#      in-memory session engine),
#   3. feeds the stream slowly to a durable CLI and SIGKILLs it mid-stream,
#   4. restarts against the same snapshot dir, re-feeds the full stream
#      (journal replay + AddPd dedupe make this idempotent) and runs the
#      battery,
#   5. fails unless the battery verdicts are byte-identical to the
#      reference AND recovery reports at least every constraint whose
#      acknowledgement reached stdout before the kill.
#
# The kill is a real SIGKILL at an arbitrary instant — no fail points —
# so this exercises the same torn-write / torn-journal-tail surface as
# the fault-injected unit tests, but end to end through the filesystem.
#
# Usage: crash_recovery_stress.sh <path-to-psem_cli> [rounds]

set -u

CLI=${1:?usage: crash_recovery_stress.sh <path-to-psem_cli> [rounds]}
ROUNDS=${2:-10}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

gen_pds() {  # $1 = round seed
  awk -v seed="$1" 'BEGIN {
    srand(seed)
    n = 24
    for (i = 0; i < n; i++) {
      r = int(rand() * 3)
      j = (i + 1) % n
      k = int(rand() * n)
      if (r == 0)      printf "pd A%d <= A%d\n", i, j
      else if (r == 1) printf "pd A%d*A%d <= A%d\n", i, k, j
      else             printf "pd A%d <= A%d+A%d\n", i, j, k
    }
  }'
}

gen_queries() {
  awk 'BEGIN {
    for (i = 0; i < 8; i++) {
      printf "implies A%d <= A%d\n", i, (i * 5 + 3) % 24
      printf "implies A%d*A%d <= A%d\n", i, (i + 7) % 24, (i * 3 + 1) % 24
    }
  }'
}

fail=0
for round in $(seq 1 "$ROUNDS"); do
  dir="$WORK/r$round"
  mkdir -p "$dir"
  gen_pds "$round" > "$dir/pds.txt"
  gen_queries > "$dir/queries.txt"

  # Reference: the same stream, durability disabled (in-memory engine).
  cat "$dir/pds.txt" "$dir/queries.txt" | "$CLI" \
    | grep -E '^(implied|not implied)$' > "$dir/expected.txt"

  # Crash run: slow feed, SIGKILL at a seeded random instant mid-stream.
  RANDOM=$round
  ( while IFS= read -r line; do printf '%s\n' "$line"; sleep 0.01; done \
      < "$dir/pds.txt"; sleep 5 ) \
    | "$CLI" --snapshot-dir "$dir/state" --checkpoint-every 3 \
      > "$dir/crash_out.txt" 2> "$dir/crash_err.txt" &
  pid=$!
  sleep "0.$(printf '%02d' $((RANDOM % 30)))"
  kill -9 "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null

  # Acks that reached stdout are a lower bound on what was journaled
  # (the journal fsync happens before the ack is printed).
  acked=$(grep -c '^E' "$dir/crash_out.txt" || true)

  # Recovery + idempotent re-feed + battery.
  cat "$dir/pds.txt" "$dir/queries.txt" | "$CLI" \
      --snapshot-dir "$dir/state" --checkpoint-every 3 \
      > "$dir/recovered_out.txt" 2> "$dir/recovered_err.txt"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "round $round: FAIL — recovery run exited $rc" >&2
    cat "$dir/recovered_err.txt" >&2
    fail=1; continue
  fi

  tier=$(sed -n 's/^recovery: tier=\([a-z-]*\) .*/\1/p' \
           "$dir/recovered_err.txt")
  recovered=$(sed -n 's/^recovery: tier=[a-z-]* constraints=\([0-9]*\) .*/\1/p' \
                "$dir/recovered_err.txt")
  if [ -z "$recovered" ]; then
    echo "round $round: FAIL — no recovery summary line" >&2
    cat "$dir/recovered_err.txt" >&2
    fail=1; continue
  fi
  if [ "$recovered" -lt "$acked" ]; then
    echo "round $round: FAIL — $acked constraints acknowledged before" \
         "kill -9 but only $recovered recovered" >&2
    fail=1; continue
  fi

  grep -E '^(implied|not implied)$' "$dir/recovered_out.txt" \
    > "$dir/actual.txt"
  if ! cmp -s "$dir/expected.txt" "$dir/actual.txt"; then
    echo "round $round: FAIL — verdicts diverge after recovery" >&2
    diff "$dir/expected.txt" "$dir/actual.txt" >&2 || true
    fail=1; continue
  fi
  echo "round $round: ok (tier=${tier:-?}, acked=$acked, recovered=$recovered)"
done

exit "$fail"
