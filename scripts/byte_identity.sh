#!/usr/bin/env bash
# Byte-identity gate between two builds of this repository.
#
# Runs the same deterministic workloads with the binaries of two build
# directories and cmp's every output pair:
#   * the 48-file matrix: table2, capacitance and fig6
#     x --integrator rk23|rk23pi x --pv-mode exact|tabulated
#     x --threads 1|4, CSV + JSON;
#   * a two-domain table2 run (--platform biglittle), CSV + JSON;
#   * table2, fig6 and quick as --shard 0/2 + 1/2, merged: the canonical
#     journal and the merged CSV/JSON;
#   * the stdout of every bench_* and example_* binary, except the
#     timing suite bench_micro_hotpaths.
# Each differing or missing file, and each run that exits non-zero, is
# named on stdout. For a differing CSV pair it also prints, per column
# that changed, the largest relative deviation |a-b|/max(|a|,|b|) and the
# label (first column) of the row where it occurs; a non-numeric column
# that changed is counted instead. Exit status: 0 when every run succeeds
# and every pair is identical, 1 otherwise, 2 on a usage error.
#
# Usage: scripts/byte_identity.sh PARENT_BUILD CHANGE_BUILD [OUT_DIR]
#
# OUT_DIR (default: a new temporary directory, removed on success) gets
# one subdirectory per build holding its outputs. Passing the same build
# twice checks that every output is deterministic.
set -u -o pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD [OUT_DIR]" >&2
  exit 2
fi
builds=()
for dir in "$1" "$2"; do
  if [[ ! -x "$dir/pns_sweep" ]]; then
    echo "$0: no pns_sweep binary in '$dir'" >&2
    exit 2
  fi
  builds+=("$(cd "$dir" && pwd)")
done
if [[ $# -eq 3 ]]; then
  out=$3
  keep=1
else
  out=$(mktemp -d)
  keep=0
fi
rm -rf "$out/parent" "$out/change"
mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)

# The deterministic bench_*/example_* binaries of either build.
progs=()
for path in "${builds[0]}"/bench_* "${builds[0]}"/example_* \
            "${builds[1]}"/bench_* "${builds[1]}"/example_*; do
  [[ -f $path && -x $path ]] || continue
  name=${path##*/}
  [[ $name == bench_micro_hotpaths ]] && continue
  [[ " ${progs[*]-} " == *" $name "* ]] || progs+=("$name")
done

# Runs every workload with the binaries of build $1, writing into the
# current directory and naming each failed run in the file FAILED.
produce() {
  local bin=$1 preset integ pv threads k
  local sweep="$bin/pns_sweep"
  for preset in table2 capacitance fig6; do
    for integ in rk23 rk23pi; do
      for pv in exact tabulated; do
        for threads in 1 4; do
          local base="$preset.$integ.$pv.t$threads"
          "$sweep" "$preset" --quiet --integrator "$integ" --pv-mode "$pv" \
            --threads "$threads" --csv "$base.csv" --json "$base.json" \
            > /dev/null 2>&1 || echo "$base" >> FAILED
        done
      done
    done
  done
  "$sweep" table2 --quiet --platform biglittle:arbiter=demand \
    --control mdgov:ondemand --control pns \
    --csv biglittle.csv --json biglittle.json > /dev/null 2>&1 ||
    echo biglittle >> FAILED
  for preset in table2 fig6 quick; do
    for k in 0 1; do
      "$sweep" "$preset" --quiet --shard "$k/2" \
        --journal "shard.$preset.$k.jsonl" > /dev/null 2>&1 ||
        echo "$preset --shard $k/2" >> FAILED
    done
    "$sweep" merge --quiet --journal "merged.$preset.jsonl" \
      --csv "merged.$preset.csv" --json "merged.$preset.json" \
      "shard.$preset.0.jsonl" "shard.$preset.1.jsonl" > /dev/null 2>&1 ||
      echo "$preset merge" >> FAILED
    # Shard journals hold rows in completion order; only the canonical
    # journal written by merge is compared.
    rm -f "shard.$preset.0.jsonl" "shard.$preset.1.jsonl"
  done
  local prog
  for prog in "${progs[@]}"; do
    [[ -x "$bin/$prog" ]] || continue
    "$bin/$prog" > "$prog.stdout" 2> /dev/null ||
      echo "$prog" >> FAILED
  done
}

# Explains how CSV $2 differs from CSV $1, one line per changed column:
#   <column>: max rel dev <r> at <row label>
# or, for a column whose cells are not both numbers,
#   <column>: <n> text cells differ (first at <row label>)
explain_csv() {
  awk -F, '
    function abs(x) { return x < 0 ? -x : x }
    function num(x) {
      return x ~ /^[-+]?([0-9]+[.]?[0-9]*|[.][0-9]+)([eE][-+]?[0-9]+)?$/
    }
    FNR == NR {
      if (FNR == 1) { ncol = NF; for (c = 1; c <= NF; ++c) name[c] = $c }
      else for (c = 1; c <= NF; ++c) cell[FNR, c] = $c
      rows_a = FNR
      next
    }
    FNR == 1 { next }
    {
      rows_b = FNR
      for (c = 1; c <= NF; ++c) {
        x = cell[FNR, c]; y = $c
        if (x == y) continue
        if (num(x) && num(y)) {
          scale = abs(x) > abs(y) ? abs(x) : abs(y)
          r = scale > 0 ? abs(x - y) / scale : 0
          if (!(c in dev) || r > dev[c]) { dev[c] = r; at[c] = $1 }
        } else if (!(c in text)) {
          text[c] = 1; text_at[c] = $1
        } else {
          ++text[c]
        }
      }
    }
    END {
      if (rows_a != rows_b)
        printf "    rows: %d vs %d\n", rows_a - 1, rows_b - 1
      for (c = 1; c <= ncol; ++c) {
        if (c in dev)
          printf "    %s: max rel dev %.3g at %s\n", name[c], dev[c], at[c]
        if (c in text)
          printf "    %s: %d text cells differ (first at %s)\n", name[c],
                 text[c], text_at[c]
      }
    }' "$1" "$2"
}

for side in parent change; do
  if [[ $side == parent ]]; then bin=${builds[0]}; else bin=${builds[1]}; fi
  echo "running $bin"
  (cd "$out/$side" && produce "$bin")
done

status=0
checked=0
for side in parent change; do
  if [[ -s "$out/$side/FAILED" ]]; then
    while read -r run; do echo "FAILED $run ($side)"; done < "$out/$side/FAILED"
    status=1
  fi
done
expected=()
for preset in table2 capacitance fig6; do
  for integ in rk23 rk23pi; do
    for pv in exact tabulated; do
      for threads in 1 4; do
        expected+=("$preset.$integ.$pv.t$threads.csv"
                   "$preset.$integ.$pv.t$threads.json")
      done
    done
  done
done
expected+=(biglittle.csv biglittle.json)
for preset in table2 fig6 quick; do
  expected+=("merged.$preset.jsonl" "merged.$preset.csv"
             "merged.$preset.json")
done
for prog in "${progs[@]}"; do expected+=("$prog.stdout"); done

for file in "${expected[@]}"; do
  checked=$((checked + 1))
  a="$out/parent/$file"
  b="$out/change/$file"
  if [[ ! -f $a || ! -f $b ]]; then
    [[ -f $a ]] || echo "MISSING $file (parent)"
    [[ -f $b ]] || echo "MISSING $file (change)"
    status=1
  elif ! cmp -s "$a" "$b"; then
    echo "DIFFERS $file"
    [[ $file == *.csv ]] && explain_csv "$a" "$b"
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "byte identity: all $checked files identical"
  [[ $keep -eq 1 ]] || rm -rf "$out"
else
  echo "byte identity: FAILED (outputs kept in $out)"
fi
exit "$status"
