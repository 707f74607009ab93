#!/usr/bin/env bash
# End-to-end smoke test of the profile lifecycle: generate a corpus,
# train a registry version and a profile file with the streaming
# trainer, run langid's eval, classify and segment on them, check the
# segmentation flags (chunks are fixed at 16 n-grams), serve the
# file and then the registry with langidd, detect over HTTP, train +
# activate a second version, hot swap it via /admin/reload, and assert
# /statsz reports the new version. Run from the repository root:
# scripts/smoke.sh
set -euo pipefail

tmp=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

addr="127.0.0.1:18321"
base="http://$addr"

echo "smoke: building binaries"
go build -o "$tmp/bin/" ./cmd/corpusgen ./cmd/langid ./cmd/langidd

echo "smoke: generating corpus"
"$tmp/bin/corpusgen" -out "$tmp/corpus" -docs 40 -words 150 -train 0.25 -langs en,es,fi,pt >/dev/null

echo "smoke: daemon with no profile source must exit non-zero with a clear message"
if "$tmp/bin/langidd" -addr "$addr" 2>"$tmp/nosource.err"; then
  fail "langidd with no profile source exited zero"
fi
grep -q "no profiles to serve" "$tmp/nosource.err" || fail "unclear no-source error: $(cat "$tmp/nosource.err")"

echo "smoke: langidd does not train: -corpus and -save are unknown flags (exit 2)"
for flag in -corpus -save; do
  status=0
  "$tmp/bin/langidd" -addr "$addr" "$flag" "$tmp/corpus" 2>"$tmp/flag.err" || status=$?
  [ "$status" -eq 2 ] || fail "langidd $flag exited $status, want 2: $(cat "$tmp/flag.err")"
done

echo "smoke: training v000001 into the registry and a profile file"
"$tmp/bin/langid" train -corpus "$tmp/corpus" -registry "$tmp/registry" -activate -out "$tmp/profiles.bin" >/dev/null
"$tmp/bin/langid" profiles -registry "$tmp/registry" | grep -q '^\* v000001' \
  || fail "v000001 not listed as active"
leftover=$(find "$tmp" -maxdepth 1 -name '*.tmp*')
[ -z "$leftover" ] || fail "langid train -out left temp entries beside the profile file: $leftover"

echo "smoke: langid eval scores the test split on direct-lookup"
"$tmp/bin/langid" eval -corpus "$tmp/corpus" -profiles "$tmp/profiles.bin" >"$tmp/eval.out"
head -n 1 "$tmp/eval.out" | grep -q ' on direct-lookup ' \
  || fail "eval header does not name direct-lookup: $(head -n 1 "$tmp/eval.out")"

fi_docs=("$tmp"/corpus/fi/test/*.txt)
fi_doc=${fi_docs[0]}
echo "smoke: langid classify calls a Finnish test file fi"
classified=$("$tmp/bin/langid" classify -profiles "$tmp/profiles.bin" "$fi_doc")
echo "$classified" | grep -q "^$fi_doc: fi " || fail "classify did not say fi: $classified"

echo "smoke: langid segment -tsv rows tile the file from byte 0 to its size"
"$tmp/bin/langid" segment -profiles "$tmp/profiles.bin" -tsv "$fi_doc" >"$tmp/segment.tsv"
awk -F '\t' -v end=0 -v size="$(wc -c <"$fi_doc")" '
  $2 != end { bad = 1 }
  { end = $3 }
  END { exit (bad || NR == 0 || end != size) }
' "$tmp/segment.tsv" || fail "segment rows do not tile 0..$(wc -c <"$fi_doc"): $(cat "$tmp/segment.tsv")"

echo "smoke: chunks are 16 n-grams: the stride flags are unknown (exit 2), a window off a multiple of 16 is refused"
status=0
"$tmp/bin/langid" segment -profiles "$tmp/profiles.bin" -stride 8 "$fi_doc" >/dev/null 2>"$tmp/flag.err" || status=$?
[ "$status" -eq 2 ] || fail "langid segment -stride 8 exited $status, want 2: $(cat "$tmp/flag.err")"
status=0
timeout 10 "$tmp/bin/langidd" -profiles "$tmp/profiles.bin" -addr "$addr" -segment-stride 8 2>"$tmp/flag.err" || status=$?
[ "$status" -eq 2 ] || fail "langidd -segment-stride 8 exited $status, want 2: $(cat "$tmp/flag.err")"
if timeout 10 "$tmp/bin/langidd" -profiles "$tmp/profiles.bin" -addr "$addr" -segment-window 100 2>"$tmp/window.err"; then
  fail "langidd -segment-window 100 exited zero"
fi
grep -q "multiple of 16" "$tmp/window.err" || fail "-segment-window 100 error does not name 16: $(cat "$tmp/window.err")"

# wait_healthy URL polls the daemon at URL until it answers /healthz.
wait_healthy() {
  for i in $(seq 1 50); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return
    kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died during startup"
    sleep 0.1
  done
  curl -fsS "$1/healthz" >/dev/null || fail "daemon never became healthy"
}

# detect_es URL checks that the daemon at URL calls a Spanish sentence es.
detect_es() {
  detect=$(curl -fsS -X POST --data \
    "el consejo y la comision adoptan todas las medidas necesarias para la aplicacion del presente reglamento" \
    "$1/detect")
  echo "$detect" | grep -q '"language":"es"' || fail "/detect on $1 did not say es: $detect"
}

echo "smoke: langidd serves the profile file on a second port"
file_base="http://127.0.0.1:18322"
"$tmp/bin/langidd" -profiles "$tmp/profiles.bin" -addr "${file_base#http://}" &
daemon_pid=$!
wait_healthy "$file_base"
detect_es "$file_base"
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "smoke: starting langidd"
"$tmp/bin/langidd" -registry "$tmp/registry" -addr "$addr" -max-body 65536 &
daemon_pid=$!
wait_healthy "$base"

echo "smoke: /detect"
detect_es "$base"

echo "smoke: /stream?spans=1 answers each NDJSON line with its language and spans"
# Line c is line a with another key and escaped letters, which the
# decoder leaves to encoding/json: it must read the same text.
printf '%s\n' \
  '{"id":"a","text":"el consejo y la comision adoptan todas las medidas necesarias para la aplicacion del presente reglamento"}' \
  '{"id":"b","text":"the council shall adopt the measures necessary for the application of this regulation"}' \
  '{"id":"c","meta":{"src":"smoke"},"text":"el cons\u0065jo y la comisi\u006fn adoptan todas las medidas necesarias para la aplic\u0061cion del presente reglamento"}' \
  >"$tmp/stream.ndjson"
curl -fsS -X POST --data-binary @"$tmp/stream.ndjson" "$base/stream?spans=1" >"$tmp/stream.out"
[ "$(wc -l <"$tmp/stream.out")" -eq 3 ] || fail "/stream?spans=1 did not answer three lines: $(cat "$tmp/stream.out")"
grep -q '^{"id":"a","language":"es".*"spans":\[{' "$tmp/stream.out" || fail "/stream line a: $(cat "$tmp/stream.out")"
grep -q '^{"id":"b","language":"en".*"spans":\[{' "$tmp/stream.out" || fail "/stream line b: $(cat "$tmp/stream.out")"
# answer ID prints the language, ngrams and count of line ID's answer.
answer() {
  grep "^{\"id\":\"$1\"" "$tmp/stream.out" | grep -o '"language":"[^"]*"\|"ngrams":[0-9]*\|"count":[0-9]*' | head -n 3 | tr '\n' ' '
}
[ -n "$(answer a)" ] && [ "$(answer c)" = "$(answer a)" ] \
  || fail "/stream line c answered $(answer c), line a $(answer a): $(cat "$tmp/stream.out")"

echo "smoke: /statsz reports v000001"
curl -fsS "$base/statsz" | grep -q '"profile_version":"v000001"' || fail "statsz not on v000001"

echo "smoke: training + activating v000002"
"$tmp/bin/langid" train -corpus "$tmp/corpus" -t 3000 -registry "$tmp/registry" -activate >/dev/null

echo "smoke: /admin/reload hot swap"
reload=$(curl -fsS -X POST "$base/admin/reload")
echo "$reload" | grep -q '"active":"v000002"' || fail "reload did not activate v000002: $reload"
echo "$reload" | grep -q '"changed":true' || fail "reload reported no change: $reload"
curl -fsS "$base/statsz" | grep -q '"profile_version":"v000002"' || fail "statsz not on v000002"

echo "smoke: detection still healthy after the swap"
detect=$(curl -fsS -X POST --data \
  "the council shall adopt the measures necessary for the application of this regulation" \
  "$base/detect")
echo "$detect" | grep -q '"language":"en"' || fail "post-swap /detect did not say en: $detect"

echo "smoke: rollback + SIGHUP reload"
"$tmp/bin/langid" profiles -registry "$tmp/registry" -rollback >/dev/null
kill -HUP "$daemon_pid"
for i in $(seq 1 50); do
  curl -fsS "$base/statsz" | grep -q '"profile_version":"v000001"' && break
  sleep 0.1
done
curl -fsS "$base/statsz" | grep -q '"profile_version":"v000001"' || fail "SIGHUP did not roll back to v000001"

echo "smoke: oversized body answers 413 JSON and closes the connection"
code=$(head -c 200000 /dev/zero | tr '\0' 'a' | \
  curl -s -D "$tmp/413.head" -o "$tmp/413.json" -w '%{http_code}' -X POST --data-binary @- "$base/detect" || true)
[ "$code" = "413" ] || fail "oversized body got $code, want 413"
grep -q '"status":413' "$tmp/413.json" || fail "413 body is not the JSON envelope: $(cat "$tmp/413.json")"
grep -qi '^connection: close' "$tmp/413.head" || fail "413 without Connection: close: $(cat "$tmp/413.head")"

kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "smoke: OK"
