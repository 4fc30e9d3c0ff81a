# Helpers for the console-script steps of workflows/tests.yml, which loads this file into
# every step through BASH_ENV.  To run a step by hand, save its run: text as step.sh and run
#   BASH_ENV=.github/ci.sh RUNNER_TEMP="$(mktemp -d)" bash -eo pipefail step.sh
# from the repo root, with spectreguard on the PATH.  Without installing the package, put
# this two-line script on the PATH as spectreguard, and export PYTHONPATH=src for the
# steps that import spectreguard themselves:
#   #!/bin/sh
#   PYTHONPATH=src exec python3 -m spectreguard.cli "$@"

# rejects PATTERN ARGS...: `spectreguard ARGS --out FILE` exits 1, the last line of its
# stderr (left in $RUNNER_TEMP/rejects.err) matches the ERE ^error: PATTERN, and FILE is
# not written.
rejects() {
  local pattern=$1 out="$RUNNER_TEMP/rejects.out" err="$RUNNER_TEMP/rejects.err" rc=0
  shift
  rm -f "$out"
  spectreguard "$@" --out "$out" 2> "$err" || rc=$?
  [[ $rc -eq 1 && $(tail -n 1 "$err") =~ ^"error: "$pattern && ! -e $out ]] ||
    { echo "rejects '$pattern' $*: exit $rc, stderr:" >&2; cat "$err" >&2; return 1; }
}

# same OUT ARGS...: `spectreguard ARGS --out OUT` and a rerun write the same bytes.
same() {
  local out=$1
  shift
  spectreguard "$@" --out "$out" && spectreguard "$@" --out "$out.rerun" && cmp "$out" "$out.rerun"
}

# body REPORT: a fleet report's JSON without "schema" and "detector", which must be present.
body() {
  python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); del r["schema"], r["detector"]
print(json.dumps(r, sort_keys=True, indent=2))' "$1"
}
