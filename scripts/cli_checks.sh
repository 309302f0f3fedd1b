#!/usr/bin/env bash
# The console-script checks: argparse's usage error and the help screens,
# a closed stdout, a closed stderr, pipeline against the four commands it
# stands for, and pipeline's errors against those of the separate
# commands.  HOLDSCAN is the command that runs holdscan, split into words
# (default: holdscan).
# For example:
#
#   bash scripts/cli_checks.sh
#   PYTHONPATH=src HOLDSCAN="python -m holdscan.cli" bash scripts/cli_checks.sh
#
# Each check that fails ends the script with a non-zero status.
set -euo pipefail

read -r -a cmd <<< "${HOLDSCAN:-holdscan}"
holdscan() { command "${cmd[@]}" "$@"; }  # command: never this function itself
root=$(mktemp -d)
trap 'rm -rf "$root"' EXIT
tmp() { mktemp -d -p "$root"; }

# argparse's own errors end, like every other error, in exit 2 and one
# error: line on stderr
d=$(tmp)
status=0
holdscan pipeline --seed 1 --duration-s abc > "$d/out" 2> "$d/err" || status=$?
test "$status" -eq 2
test ! -s "$d/out"
test "$(wc -l < "$d/err")" -eq 1
grep -q '^error: ' "$d/err"
holdscan --help > /dev/null
for sub in generate score detect report pipeline; do
  holdscan "$sub" --help > /dev/null
done
echo "ok: usage error and help"

# with stdout closed, each command that writes there, and --help, ends in
# exit 2 and one error: line, and writes no file; generate with -o writes
# the same bytes as with stdout open
d=$(tmp)
gen=(--seed 7 --duration-s 30 --hold 10:2)
holdscan generate "${gen[@]}" -o "$d/w.csv"
holdscan score "$d/w.csv" -o "$d/t.csv"
holdscan detect "$d/t.csv" --waveform "$d/w.csv" -o "$d/s.ndjson"
closed() {
  local status=0
  holdscan "$@" >&- 2> "$d/err" || status=$?
  test "$status" -eq 2
  test "$(wc -l < "$d/err")" -eq 1
  test "$(cat "$d/err")" = "error: stdout is closed"
}
closed generate "${gen[@]}" --ground-truth "$d/g.ndjson"
closed score "$d/w.csv"
closed detect "$d/t.csv" --waveform "$d/w.csv"
closed report "$d/w.csv" --segments "$d/s.ndjson"
closed pipeline "${gen[@]}" --save-waveform "$d/pw.csv"
closed --help
closed score --help
test ! -e "$d/g.ndjson"
test ! -e "$d/pw.csv"
holdscan generate "${gen[@]}" -o "$d/closed.csv" >&-
cmp "$d/closed.csv" "$d/w.csv"
echo "ok: closed stdout"

# with stderr closed, or open but not writable, a failing command keeps its
# exit code and writes nothing to stdout in place of its error line
d=$(tmp)
echo x > "$d/readonly"
no_stderr() {
  local want=$1 status=0
  shift
  holdscan "$@" > "$d/out" 2>&- || status=$?
  test "$status" -eq "$want"
  test ! -s "$d/out"
  status=0
  holdscan "$@" > "$d/out" 2< "$d/readonly" || status=$?
  test "$status" -eq "$want"
  test ! -s "$d/out"
}
no_stderr 2 score "$d/missing.csv"
no_stderr 2 bogus
no_stderr 1 generate --seed 1 --duration-s 1
no_stderr 1 pipeline --seed 1 --duration-s 60 --var-flow nan
no_stderr 2 score - <&-
echo "ok: closed stderr"

# pipeline must write what the four commands write through files; the
# second recording is 35000 samples at 250 Hz, which is no multiple of
# the generator's block of 16384 samples, with a hold across each of
# the two block edges (65.536 s and 131.072 s); in the third, two holds
# 0.05 s apart on either side of the block edge at 163.84 s merge
# across it, and the hold at 167 s has its 5 s lookback across it; in
# the fourth, most log-scores lie beyond 1e31, and its thresholds find
# a segment at the end of each expiration, so the read-back of each
# segment's window formats its values; in the fifth, the pressures lie
# near 1e10, so the read-back of every block and of every segment's
# window formats them as text.  Each entry is the flags of
# generate, of score and of detect, separated by "|".  pipeline runs
# with the --save-* flags, which score every sample from the read-back
# values, and without them, which score from the read-back values only
# near a threshold.  Last, an off-threshold equal to a log-score of the
# trace, the one that closes the first segment at the default
# thresholds, and an on-threshold equal to the one that opens it, put
# detect's comparison on a value it reads.
compare() {
  local d=$1 gen=$2 model=$3 detect=$4
  holdscan pipeline $gen $model $detect --save-waveform "$d/pw.csv" --save-trace "$d/pt.csv" \
    --save-segments "$d/ps.ndjson" -o "$d/pr.ndjson"
  holdscan pipeline $gen $model $detect > "$d/pr-nosave.ndjson"
  holdscan generate $gen -o "$d/w.csv"
  holdscan score "$d/w.csv" $model -o "$d/t.csv"
  holdscan detect "$d/t.csv" --waveform "$d/w.csv" $detect -o "$d/s.ndjson"
  holdscan report "$d/w.csv" --segments "$d/s.ndjson" -o "$d/r.ndjson"
  test -s "$d/r.ndjson"
  cmp "$d/pr.ndjson" "$d/r.ndjson"
  cmp "$d/pr-nosave.ndjson" "$d/r.ndjson"
  cmp "$d/pw.csv" "$d/w.csv"
  cmp "$d/pt.csv" "$d/t.csv"
  cmp "$d/ps.ndjson" "$d/s.ndjson"
}
for run in "--seed 7 --duration-s 600 --hold 100:2||" \
    "--seed 11 --duration-s 140 --sample-rate-hz 250 --hold 64.5:2 --hold 130.5:1.5||" \
    "--seed 13 --duration-s 400 --hold 162:1.82 --hold 163.87:1.5 --hold 167:2 --hold 330:2||" \
    "--seed 1 --duration-s 600 --hold 100:2|--var-flow 1e-306|--log-threshold-on=-1e306 --log-threshold-off=-1e307" \
    "--seed 3 --duration-s 200 --hold 100:2 --noise-sd-pressure 1e10||--log-threshold-on=-1e18 --log-threshold-off=-1e19"; do
  IFS="|" read -r gen model detect <<< "$run"
  compare "$(tmp)" "$gen" "$model" "$detect"
done
gen="--seed 7 --duration-s 600 --hold 100:2"
d=$(tmp)
holdscan generate $gen | holdscan score - -o "$d/trace.csv"
off=$(awk -F, 'NR > 1 && $2 >= -10 { open = 1 } NR > 1 && open && $2 < -14 { print $2; exit }' "$d/trace.csv")
test -n "$off"
compare "$d" "$gen" "" "--log-threshold-off $off"
on=$(awk -F, 'NR > 1 && $2 >= -10 { print $2; exit }' "$d/trace.csv")
test -n "$on"
compare "$(tmp)" "$gen" "" "--log-threshold-on $on"
echo "ok: pipeline against the four commands"

# a recording that fails ends pipeline in the error of the first of the
# separate commands that fails: generate, else score on its output; the
# five fail on a single row, a flow beyond the float range, a 7.3 Hz
# grid that 9 digits do not keep uniform, log-scores that are nan and a
# 256 Hz grid that fails from t = 100 s, after earlier blocks were reported.
# Each entry is the flags of generate and of score, separated by "|".
for run in "--seed 9 --duration-s 0.01 --hold 0:0.01|" \
    "--seed 7 --duration-s 0.01 --hold 0:0.01 --noise-sd-flow 1.7e308|" \
    "--seed 4 --duration-s 300 --sample-rate-hz 7.3 --hold 100:3|" \
    "--seed 1 --duration-s 30 --hold 10:2|--mu-flow=-1.7e308 --var-flow 1e308" \
    "--seed 1 --duration-s 300 --sample-rate-hz 256 --hold 50:2|"; do
  IFS="|" read -r gen model <<< "$run"
  d=$(tmp)
  code=0
  holdscan pipeline $gen $model > "$d/out" 2> "$d/err" || code=$?
  want=0
  holdscan generate $gen -o "$d/w.csv" 2> "$d/want" || want=$?
  if [ "$want" -eq 0 ]; then
    holdscan score "$d/w.csv" $model > /dev/null 2> "$d/want" || want=$?
  fi
  test "$code" -ne 0
  test "$code" -eq "$want"
  test ! -s "$d/out"
  test "$(wc -l < "$d/err")" -eq 1
  grep -q '^error: ' "$d/err"
  cmp "$d/err" "$d/want"
done
echo "ok: pipeline errors against the separate commands"
