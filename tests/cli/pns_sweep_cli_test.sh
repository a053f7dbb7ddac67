#!/bin/sh
# CLI contract tests for pns_sweep, registered with ctest.
#
#   pns_sweep_cli_test.sh /path/to/pns_sweep
#
# Covers the error surfaces (unknown sweep/flag must name the valid
# choices and exit non-zero, inconsistent flag combinations are refused)
# and the checkpoint workflows end-to-end on the quick preset: a 2-shard
# run merged, and an interrupted run resumed, must both produce a CSV
# byte-identical to a single uninterrupted run.
set -eu

BIN=$1
[ -x "$BIN" ] || { echo "pns_sweep binary not found: $BIN"; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fails=0
fail() { echo "FAIL: $1"; fails=$((fails + 1)); }

# --- diagnostics: unknown sweep / flag list the valid choices, exit != 0
if "$BIN" no-such-sweep >out.txt 2>err.txt; then
  fail "unknown sweep exited 0"
fi
grep -q "valid sweeps:" err.txt || fail "unknown sweep: choices not listed"
grep -q "table2" err.txt || fail "unknown sweep: table2 missing from choices"

if "$BIN" quick --no-such-flag >out.txt 2>err.txt; then
  fail "unknown flag exited 0"
fi
grep -q "unknown option: --no-such-flag" err.txt || \
  fail "unknown flag not named in diagnostics"

if "$BIN" quick --pv-mode warp >out.txt 2>err.txt; then
  fail "bad --pv-mode exited 0"
fi
grep -q "valid: exact, tabulated" err.txt || \
  fail "bad --pv-mode: choices not listed"

"$BIN" --help >/dev/null 2>&1 || fail "--help exited non-zero"

# --- refused flag combinations
"$BIN" quick --shard 0/2 --quiet 2>/dev/null && fail "--shard without --journal accepted"
"$BIN" quick --resume --quiet 2>/dev/null && fail "--resume without --journal accepted"
"$BIN" quick --shard 2/2 --journal j.jsonl --quiet 2>/dev/null && fail "--shard K>=N accepted"
"$BIN" quick --shard x/y --journal j.jsonl --quiet 2>/dev/null && fail "malformed --shard accepted"
"$BIN" quick --shard 0/2 --journal j.jsonl --csv p.csv --quiet 2>/dev/null && \
  fail "--shard with --csv accepted (partial aggregate)"
"$BIN" quick --refine --refine-metric bogus --quiet 2>/dev/null && \
  fail "unknown --refine-metric accepted"

# --- the list subcommand is generated from the registries
"$BIN" list >list.txt 2>&1 || fail "list exited non-zero"
for needle in "pns" "gov:ondemand" "static" "solar" "shadow" "trace" \
              "flicker" "period=<double>" "up_threshold=<double>" \
              "rk23" "rk23pi" "seg=<double>" "table2" "quick"; do
  grep -q "$needle" list.txt || fail "list: '$needle' missing"
done
grep -q "rk23batch\|rk23simd" list.txt && fail "list: retired integrator listed"
grep -q "coast=<\|coast_tol=<\|elide=<" list.txt && fail "list: retired rk23pi key listed"

# --- control/source spec-string diagnostics name the valid choices
if "$BIN" quick --control warp-speed >out.txt 2>err.txt; then
  fail "unknown control kind exited 0"
fi
grep -q "gov:ondemand" err.txt || fail "unknown control: kinds not listed"
if "$BIN" quick --control pns:warp=1 >out.txt 2>err.txt; then
  fail "unknown control param exited 0"
fi
grep -q "v_q" err.txt || fail "unknown control param: keys not listed"
if "$BIN" quick --source flicker:period=abc >out.txt 2>err.txt; then
  fail "malformed source param value exited 0"
fi
grep -q "expected a number" err.txt || \
  fail "malformed source value: no type diagnostic"

# --- integrator spec strings: diagnostics + end-to-end run
if "$BIN" quick --integrator rk99 >out.txt 2>err.txt; then
  fail "unknown integrator kind exited 0"
fi
grep -q "rk23pi" err.txt || fail "unknown integrator: kinds not listed"
if "$BIN" quick --integrator rk23pi:warp=1 >out.txt 2>err.txt; then
  fail "unknown integrator param exited 0"
fi
grep -q "rtol" err.txt || fail "unknown integrator param: keys not listed"
# coasting and tick elision are not switches any more: their retired
# keys are unknown keys (exit 2, valid keys listed, nothing written)
status=0
"$BIN" quick --quiet --integrator rk23pi:coast=false --csv coast.csv \
  >/dev/null 2>err.txt || status=$?
[ "$status" -eq 2 ] || fail "rk23pi:coast=false: exit $status, expected 2"
grep -q "unknown param 'coast'" err.txt || fail "rk23pi:coast=false: key not named"
grep -q "max_step" err.txt || fail "rk23pi:coast=false: valid keys not listed"
[ -e coast.csv ] && fail "rk23pi:coast=false wrote its CSV"
"$BIN" quick --quiet --integrator rk23pi --csv pi.csv >/dev/null || \
  fail "rk23pi run failed"
"$BIN" quick --quiet --integrator rk23pi --threads 4 --csv pi4.csv \
  >/dev/null || fail "rk23pi threaded run failed"
cmp -s pi.csv pi4.csv || fail "rk23pi CSV differs across thread counts"

# --- the retired rk23batch/rk23simd kinds are unknown kinds: refused up
# front with the valid choices, and a journal pinning one never resumes
if "$BIN" quick --quiet --integrator rk23batch --csv bat.csv \
  >/dev/null 2>err.txt; then
  fail "retired rk23batch integrator accepted"
fi
grep -q "unknown integrator 'rk23batch'" err.txt || \
  fail "rk23batch: no unknown-kind diagnostic"
grep -q "rk23pi" err.txt || fail "rk23batch: valid kinds not listed"
[ -e bat.csv ] && fail "refused rk23batch run wrote its CSV"
"$BIN" quick --quiet --integrator rk23pi --journal w.jsonl >/dev/null || \
  fail "journalled rk23pi run failed"
# Rewrite the header (checksum dropped, as in a pre-checksum journal) to
# the identity an rk23batch run used to pin.
sed '1s/integrator=rk23pi/integrator=rk23batch/; 1s/,"crc":"[0-9a-f]*"}$/}/' \
  w.jsonl > batch.jsonl
grep -q "integrator=rk23batch" batch.jsonl || fail "rk23batch header not forged"
if "$BIN" quick --quiet --integrator rk23pi --resume --journal batch.jsonl \
  --csv bat_resumed.csv >/dev/null 2>err.txt; then
  fail "rk23batch journal resumed under rk23pi"
fi
grep -q "integrator=rk23batch" err.txt || \
  fail "rk23batch journal refusal: pinned identity not named"
[ -e bat_resumed.csv ] && fail "refused rk23batch resume wrote its CSV"

# --- a journal written before PV solves were seeded (no "&pv_solve=" in
# its header) is refused on resume: non-zero exit, no CSV
grep -q "pv=exact&pv_solve=3" w.jsonl || fail "journal header lacks pv_solve"
sed '1s/&pv_solve=3//; 1s/,"crc":"[0-9a-f]*"}$/}/' w.jsonl > cold.jsonl
grep -q "pv_solve" cold.jsonl && fail "pv_solve token not stripped"
if "$BIN" quick --quiet --integrator rk23pi --resume --journal cold.jsonl \
  --csv cold_resumed.csv >/dev/null 2>err.txt; then
  fail "journal without pv_solve resumed"
fi
grep -q "refusing to mix sweeps" err.txt || \
  fail "pv_solve journal refusal: no mismatch diagnostic"
[ -e cold_resumed.csv ] && fail "refused pre-pv_solve resume wrote its CSV"

# --- a journal of the first-order-seeded solve ("&pv_solve=2") is
# refused on resume the same way: its rows never mix with version 3 rows
sed '1s/&pv_solve=3/\&pv_solve=2/; 1s/,"crc":"[0-9a-f]*"}$/}/' w.jsonl > v2.jsonl
grep -q "pv=exact&pv_solve=2" v2.jsonl || fail "pv_solve=2 header not forged"
if "$BIN" quick --quiet --integrator rk23pi --resume --journal v2.jsonl \
  --csv v2_resumed.csv >/dev/null 2>err.txt; then
  fail "pv_solve=2 journal resumed"
fi
grep -q "refusing to mix sweeps" err.txt || \
  fail "pv_solve=2 journal refusal: no mismatch diagnostic"
grep -q "pv_solve=2" err.txt || \
  fail "pv_solve=2 journal refusal: pinned identity not named"
[ -e v2_resumed.csv ] && fail "refused pv_solve=2 resume wrote its CSV"

# --- removed commands and flags are refused without writing anything
if "$BIN" worker --connect tcp:127.0.0.1:1 --csv worker.csv \
  >/dev/null 2>err.txt; then
  fail "removed worker subcommand exited 0"
fi
grep -q "unknown option: --connect" err.txt || \
  fail "removed worker subcommand: --connect not named in diagnostics"
[ -e worker.csv ] && fail "removed worker subcommand wrote its CSV"
if "$BIN" quick --fault fault:seed=1 --csv fault.csv >/dev/null 2>err.txt; then
  fail "removed --fault flag exited 0"
fi
grep -q "unknown option: --fault" err.txt || \
  fail "removed --fault flag not named in diagnostics"
[ -e fault.csv ] && fail "removed --fault flag wrote its CSV"

# --- a parameterized governor runs end-to-end from the CLI
"$BIN" quick --quiet --control gov:ondemand:period=0.05 --control pns \
  --csv tuned.csv >/dev/null || fail "parameterized governor run failed"
grep -q "gov:ondemand" tuned.csv || fail "tuned run: governor row missing"

# --- the flicker and trace sources run end-to-end from the CLI
"$BIN" quick --quiet --source flicker:period=30,depth=0.5 --csv flick.csv \
  >/dev/null || fail "flicker source run failed"
grep -q "flicker" flick.csv || fail "flicker run: condition cell missing"
printf "t,wm2\n0,0\n43200,800\n86400,0\n" > day.csv
"$BIN" quick --quiet --source "trace:file=day.csv" --csv traced.csv \
  >/dev/null || fail "trace source run failed"
grep -q "trace" traced.csv || fail "trace run: condition cell missing"

# --- journal identity pins the control/source spec strings
"$BIN" quick --quiet --control gov:ondemand:period=0.05 \
  --journal spec.jsonl >/dev/null || fail "journalled tuned run failed"
if "$BIN" quick --quiet --control gov:ondemand:period=0.1 --resume \
  --journal spec.jsonl >/dev/null 2>err.txt; then
  fail "journal reused across differing --control specs"
fi
grep -q "gov:ondemand:period=0.05" err.txt || \
  fail "identity mismatch: original spec string not named"

# --- reference: one uninterrupted run
"$BIN" quick --quiet --csv ref.csv --json ref.json >/dev/null || \
  fail "reference quick run failed"

# --- 2-shard + merge is byte-identical
"$BIN" quick --quiet --shard 0/2 --journal s0.jsonl >/dev/null || fail "shard 0/2 failed"
"$BIN" quick --quiet --shard 1/2 --journal s1.jsonl >/dev/null || fail "shard 1/2 failed"
"$BIN" merge --quiet --csv merged.csv --json merged.json s0.jsonl s1.jsonl >/dev/null || \
  fail "merge failed"
cmp -s ref.csv merged.csv || fail "merged CSV differs from single-run CSV"
cmp -s ref.json merged.json || fail "merged JSON differs from single-run JSON"

# --- merge of an incomplete journal set is an error
if "$BIN" merge --quiet --csv partial.csv s0.jsonl >/dev/null 2>err.txt; then
  fail "merge of one shard exited 0"
fi
grep -q "missing" err.txt || fail "incomplete merge: no missing-shards message"

# --- interrupt (one shard's worth of progress) + resume is byte-identical
"$BIN" quick --quiet --shard 0/2 --journal r.jsonl >/dev/null || fail "partial run failed"
"$BIN" quick --quiet --journal r.jsonl --csv resumed.csv >/dev/null 2>&1 && \
  fail "existing journal without --resume accepted"
"$BIN" quick --quiet --resume --journal r.jsonl --csv resumed.csv >resume_out.txt || \
  fail "resume failed"
grep -q "resumed from journal" resume_out.txt || fail "resume did not reuse journal rows"
cmp -s ref.csv resumed.csv || fail "resumed CSV differs from single-run CSV"

# --- a corrupt row and an unknown line kind are named on stderr (even
# under --quiet) by resume and merge; their rows re-run, bytes unchanged
"$BIN" quick --quiet --shard 0/2 --journal bad.jsonl >/dev/null || fail "partial run failed"
sed '2s/"crc":"[0-9a-f]*"/"crc":"00000000"/' bad.jsonl > bad.tmp && mv bad.tmp bad.jsonl
echo '{"kind":"bogus"}' >> bad.jsonl
"$BIN" quick --quiet --resume --journal bad.jsonl --csv bad_resumed.csv \
  >/dev/null 2>err.txt || fail "resume of a damaged journal failed"
grep -q "bad.jsonl:2: checksum mismatch -- line quarantined" err.txt || \
  fail "resume: quarantined line not named"
grep -q "bad.jsonl:8: unknown line kind 'bogus' dropped" err.txt || \
  fail "resume: unknown line kind not named"
cmp -s ref.csv bad_resumed.csv || fail "resumed CSV of a damaged journal differs"
"$BIN" merge --quiet --csv bad_merged.csv --json bad_merged.json bad.jsonl \
  >/dev/null 2>err.txt || fail "merge of a healed journal failed"
grep -q "bad.jsonl:2: checksum mismatch" err.txt || fail "merge: quarantined line not named"
grep -q "bad.jsonl:8: unknown line kind" err.txt || fail "merge: unknown line kind not named"
cmp -s ref.csv bad_merged.csv || fail "merged CSV of a healed journal differs"
cmp -s ref.json bad_merged.json || fail "merged JSON of a healed journal differs"

# --- a row line whose index lies outside the sweep is dropped with a
# note: a journal missing row 3 that carries a copy of row 5 as row 99
# (no checksum, as in a pre-checksum journal) is incomplete, so merge
# exits 1 without writing and resume re-runs scenario 3
"$BIN" quick --quiet --threads 1 --journal forged.jsonl >/dev/null || \
  fail "journalled quick run failed"
sed -n '7p' forged.jsonl | \
  sed -e 's/,"crc":"[0-9a-f]*"}$/}/' -e 's/"i":5,/"i":99,/' > stray.txt
grep -q '"i":99,' stray.txt || fail "forged row line not built"
sed '5d' forged.jsonl > forged.tmp && cat stray.txt >> forged.tmp && \
  mv forged.tmp forged.jsonl
if "$BIN" merge --quiet --csv forged.csv forged.jsonl >/dev/null 2>err.txt; then
  fail "merge of a journal with an out-of-range row exited 0"
fi
grep -q "forged.jsonl:13: row index 99 outside the sweep's 12 scenarios -- line dropped" \
  err.txt || fail "merge: out-of-range row line not named"
grep -q "cover 11 of 12" err.txt || fail "merge: out-of-range row counted"
[ -e forged.csv ] && fail "merge of an incomplete journal wrote a CSV"
"$BIN" quick --quiet --resume --journal forged.jsonl --csv forged_resumed.csv \
  >/dev/null 2>err.txt || fail "resume of a journal with an out-of-range row failed"
grep -q "forged.jsonl:13: row index 99 outside" err.txt || \
  fail "resume: out-of-range row line not named"
cmp -s ref.csv forged_resumed.csv || fail "resumed CSV of a forged journal differs"

# --- a journal from different sweep parameters is refused
"$BIN" quick --quiet --minutes 5 --resume --journal r.jsonl 2>err.txt && \
  fail "journal reused across differing --minutes"

# --- a journal under a different --integrator is refused
"$BIN" quick --quiet --integrator rk23 --resume --journal r.jsonl \
  2>err.txt && fail "journal reused across differing --integrator"

# --- a bare rk23 run journals without "&integrator=", as every default
# run did before rk23pi became the default: such a journal is refused by
# a default run and fully reused under --integrator rk23
"$BIN" quick --quiet --integrator rk23 --journal old.jsonl --csv old.csv \
  >/dev/null || fail "rk23 journalled run failed"
grep -q "integrator=" old.jsonl && fail "bare rk23 identity spells the integrator"
"$BIN" quick --quiet --resume --journal old.jsonl >/dev/null 2>err.txt && \
  fail "rk23-era journal resumed under the default integrator"
"$BIN" quick --quiet --integrator rk23 --resume --journal old.jsonl \
  --csv old_resumed.csv >old_resume.txt || fail "rk23 journal resume failed"
grep -q "12 resumed from journal" old_resume.txt || \
  fail "rk23 journal resume re-simulated scenarios"
cmp -s old.csv old_resumed.csv || fail "rk23 resumed CSV differs"

# --- the retired journal compaction and cost-balanced sharding are
# refused as CLI misuse: exit 2, the problem named, no CSV written
"$BIN" quick --quiet --journal c.jsonl >/dev/null || fail "journalled prep run failed"
status=0
"$BIN" compact c.jsonl --csv compact.csv >/dev/null 2>err.txt || status=$?
[ "$status" -eq 2 ] || fail "removed compact subcommand: exit $status, expected 2"
grep -q "unknown sweep: compact" err.txt || \
  fail "removed compact subcommand not named in diagnostics"
[ -e compact.csv ] && fail "removed compact subcommand wrote its CSV"
status=0
"$BIN" quick --quiet --cost-journal c.jsonl --csv cost.csv >/dev/null \
  2>err.txt || status=$?
[ "$status" -eq 2 ] || fail "removed --cost-journal flag: exit $status, expected 2"
grep -q "unknown option: --cost-journal" err.txt || \
  fail "removed --cost-journal flag not named in diagnostics"
[ -e cost.csv ] && fail "removed --cost-journal flag wrote its CSV"
status=0
"$BIN" quick --quiet --out x --csv out.csv >/dev/null 2>err.txt || status=$?
[ "$status" -eq 2 ] || fail "removed --out flag: exit $status, expected 2"
grep -q "unknown option: --out" err.txt || \
  fail "removed --out flag not named in diagnostics"
[ -e out.csv ] && fail "removed --out flag wrote its CSV"

# --- a 1-thread journal is byte-for-byte its canonical (merged) form
"$BIN" quick --quiet --threads 1 --journal one.jsonl >/dev/null || \
  fail "1-thread journalled run failed"
"$BIN" merge --quiet --journal canon.jsonl one.jsonl >/dev/null || \
  fail "merge of the 1-thread journal failed"
cmp -s one.jsonl canon.jsonl || fail "1-thread journal differs from its canonical form"

# --- malformed numeric flags are CLI misuse: exit 2 with a one-line
# diagnostic naming the flag and value, and nothing written.
# usage: refused FLAG VALUE SWEEP [EXTRA ARGS...]
refused() {
  flag=$1
  value=$2
  shift 2
  rm -f bad.csv bad.jsonl
  status=0
  "$BIN" "$@" --quiet --csv bad.csv "$flag" "$value" >/dev/null 2>err.txt || \
    status=$?
  [ "$status" -eq 2 ] || fail "$flag $value: exit $status, expected 2"
  [ "$(wc -l < err.txt)" -eq 1 ] || fail "$flag $value: diagnostic is not one line"
  grep -q "^invalid $flag '$value'" err.txt || fail "$flag $value: not named"
  [ -e bad.csv ] && fail "$flag $value: wrote its CSV"
  [ -e bad.jsonl ] && fail "$flag $value: wrote its journal"
  return 0
}
refused --minutes abc table2
refused --minutes -3 table2
refused --minutes nan table2
refused --minutes inf table2
refused --minutes 0 table2
refused --threads x quick
refused --threads -1 quick
refused --threads 2x quick
refused --refine-tol abc capacitance --refine
refused --refine-tol -0.5 capacitance --refine
refused --refine-depth x capacitance --refine
refused --refine-depth -1 capacitance --refine
refused --shard 0/-4 quick --journal bad.jsonl
refused --shard +0/2 quick --journal bad.jsonl
"$BIN" quick --quiet --threads 0 --csv zero.csv >/dev/null || \
  fail "--threads 0 (all cores) refused"
cmp -s ref.csv zero.csv || fail "--threads 0 CSV differs from the reference"

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI check(s) failed"
  exit 1
fi
echo "all CLI checks passed"
