#!/usr/bin/env bash
# gpuperfd smoke test, two legs.
#
# Leg 1 — one worker: build the service, start it with a two-device
# fleet (the full GTX 285 and its 6-SM slice), a calibration cache and
# a result cache, then drive every endpoint end to end: readiness
# (healthz 503 "starting" before any calibration, 200 "ok" after),
# kernel/device listings with caching headers and a working
# If-None-Match 304, analyze/advise/compare each served MISS then HIT
# with byte-identical bodies, the cache-hit timing win, /v1/stats
# counters, and the on-disk calibration and result slots. Plus the
# bring-your-own-kernel loop: POST /v1/kernels with a hand-written
# tree reduction (accepted, listed, persisted to -subs-dir, analyzed
# MISS then HIT under the measure-only policy), 400 rejections naming
# the violated ceiling for an out-of-envelope and an over-budget
# program, and DELETE eviction dropping the id from the kernel listing
# and the disk slot.
#
# Leg 2 — a 2-worker router: two lazy workers plus a gpuperfd -route
# front door that consistent-hashes devices by hardware fingerprint.
# Analyze/advise/compare twice each through the router (MISS then
# HIT), nonzero aggregated hit counters, and shard purity: each
# worker's calibration dir holds only fingerprints of devices the
# router's shard table assigns to it. Submissions ride the same
# router: POST /v1/kernels lands on the shard owning the submission
# id, analyze reaches it wherever the device shard points, and DELETE
# evicts it.
set -euo pipefail
cd "$(dirname "$0")/.."

BINDIR=$(mktemp -d)
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$BINDIR"' EXIT

go build -o "$BINDIR/gpuperfd" ./cmd/gpuperfd

# wait_http URL: poll until the server answers any HTTP status at all.
wait_http() {
    for _ in $(seq 1 150); do
        local code
        code=$(curl -s -o /dev/null -w '%{http_code}' "$1" || true)
        [ "$code" != "000" ] && return 0
        sleep 0.2
    done
    echo "smoke: $1 never came up" >&2
    exit 1
}

# post URL BODY HDRFILE: POST, body on stdout, headers to HDRFILE.
post() { curl -fsS -X POST "$1" -d "$2" -D "$3"; }

# xcache HDRFILE: the response's X-Cache verdict.
xcache() { awk -F': ' 'tolower($1)=="x-cache"{gsub(/\r/,"",$2); print $2}' "$1"; }

### Leg 1: one worker ########################################################

ADDR=127.0.0.1:8097
CALDIR="$BINDIR/cal"
CACHEDIR="$BINDIR/cache"

SUBSDIR="$BINDIR/subs"

PPROF=127.0.0.1:8101

"$BINDIR/gpuperfd" -addr "$ADDR" -devices gtx285-6sm,gtx285 \
    -cal-dir "$CALDIR" -cache-dir "$CACHEDIR" \
    -subs-dir "$SUBSDIR" -subs-max 8 -subs-ttl 1h \
    -log-format json -pprof "$PPROF" 2>"$BINDIR/worker.log" &
PIDS+=($!)
wait_http "http://$ADDR/healthz"

# Readiness: nothing is calibrated yet, so healthz must refuse.
HCODE=$(curl -s -o "$BINDIR/h1" -w '%{http_code}' "http://$ADDR/healthz")
if [ "$HCODE" != "503" ] || ! grep -q '"starting"' "$BINDIR/h1"; then
    echo "smoke: fresh healthz should be 503 starting, got $HCODE: $(cat "$BINDIR/h1")" >&2
    exit 1
fi

KERNELS=$(curl -fsS -D "$BINDIR/kh" "http://$ADDR/v1/kernels")
grep -q '"matmul16"' <<<"$KERNELS" || {
    echo "smoke: kernel list missing matmul16: $KERNELS" >&2
    exit 1
}
# The listing is per-kernel metadata, not bare names: description,
# size bounds, variant family, and the advisor scenario each
# optimization variant realizes.
for field in '"description"' '"max_size"' '"family": "matmul"' '"optimization": "conflict-free-shared"'; do
    grep -q "$field" <<<"$KERNELS" || {
        echo "smoke: kernel list missing $field: $KERNELS" >&2
        exit 1
    }
done
# The kernel listing is dynamic now (submissions come and go), so it
# must NOT claim Cache-Control freshness — but its ETag still
# revalidates.
if grep -qi '^cache-control:' "$BINDIR/kh"; then
    echo "smoke: dynamic kernel list must not set Cache-Control:" >&2
    cat "$BINDIR/kh" >&2
    exit 1
fi
ETAG=$(awk -F': ' 'tolower($1)=="etag"{gsub(/\r/,"",$2); print $2}' "$BINDIR/kh")
[ -n "$ETAG" ] || { echo "smoke: kernel list has no ETag" >&2; exit 1; }
CODE304=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $ETAG" "http://$ADDR/v1/kernels")
if [ "$CODE304" != "304" ]; then
    echo "smoke: If-None-Match revalidation answered $CODE304, want 304" >&2
    exit 1
fi

# The device list carries both served catalog entries, each with a
# hardware fingerprint, and the fingerprints differ.
DEVICES=$(curl -fsS -D "$BINDIR/dh" "http://$ADDR/v1/devices")
# The device listing stays fully static, so it keeps Cache-Control.
grep -qi '^cache-control: .*max-age' "$BINDIR/dh" || {
    echo "smoke: device list missing Cache-Control:" >&2
    cat "$BINDIR/dh" >&2
    exit 1
}
for field in '"gtx285"' '"gtx285-6sm"' '"fingerprint"' '"peak_gflops"'; do
    grep -q "$field" <<<"$DEVICES" || {
        echo "smoke: device list missing $field: $DEVICES" >&2
        exit 1
    }
done
NFP=$(echo "$DEVICES" | grep -o '"fingerprint": "[^"]*"' | sort -u | wc -l)
if [ "$NFP" -ne 2 ]; then
    echo "smoke: expected 2 distinct device fingerprints, got $NFP: $DEVICES" >&2
    exit 1
fi

# Analyze on the (fast) slice, twice: a cold MISS, then a HIT with the
# identical body.
BODY='{"kernel":"matmul16","size":64,"seed":7,"device":"gtx285-6sm"}'
OUT=$(post "http://$ADDR/v1/analyze" "$BODY" "$BINDIR/a1")
grep -q '"bottleneck"' <<<"$OUT" || {
    echo "smoke: analyze response missing bottleneck field: $OUT" >&2
    exit 1
}
grep -q '"device": "gtx285-6sm"' <<<"$OUT" || {
    echo "smoke: analyze response does not echo the catalog device: $OUT" >&2
    exit 1
}
OUT2=$(post "http://$ADDR/v1/analyze" "$BODY" "$BINDIR/a2")
if [ "$(xcache "$BINDIR/a1")" != "MISS" ] || [ "$(xcache "$BINDIR/a2")" != "HIT" ]; then
    echo "smoke: analyze X-Cache $(xcache "$BINDIR/a1") then $(xcache "$BINDIR/a2"), want MISS then HIT" >&2
    exit 1
fi
if [ "$OUT" != "$OUT2" ]; then
    echo "smoke: cached analyze body differs from the computed one" >&2
    exit 1
fi

# The default device is calibrated now, so readiness flipped.
HCODE=$(curl -s -o "$BINDIR/h2" -w '%{http_code}' "http://$ADDR/healthz")
if [ "$HCODE" != "200" ] || ! grep -q '"ok"' "$BINDIR/h2"; then
    echo "smoke: post-traffic healthz should be 200 ok, got $HCODE: $(cat "$BINDIR/h2")" >&2
    exit 1
fi

ADVICE=$(post "http://$ADDR/v1/advise" \
    '{"kernel":"matmul-naive","size":128,"seed":7,"device":"gtx285-6sm"}' "$BINDIR/ad1")
for field in '"scenarios"' '"speedup"' '"top": "perfect-coalescing"'; do
    grep -q "$field" <<<"$ADVICE" || {
        echo "smoke: advise response missing $field: $ADVICE" >&2
        exit 1
    }
done
post "http://$ADDR/v1/advise" \
    '{"kernel":"matmul-naive","size":128,"seed":7,"device":"gtx285-6sm"}' "$BINDIR/ad2" >/dev/null
if [ "$(xcache "$BINDIR/ad2")" != "HIT" ]; then
    echo "smoke: repeat advise was $(xcache "$BINDIR/ad2"), want HIT" >&2
    exit 1
fi

# Measure is the calibration-free timing path (and is never cached).
MEAS=$(curl -fsS -X POST "http://$ADDR/v1/measure" \
    -d '{"kernel":"matmul16","size":64,"seed":7,"device":"gtx285-6sm"}')
grep -q '"seconds"' <<<"$MEAS" || {
    echo "smoke: measure response missing seconds: $MEAS" >&2
    exit 1
}

# Bring-your-own-kernel: a hand-written 64-thread tree reduction (4
# CTAs, each summing 64 floats into out[ctaid]) goes through the
# ingest pipeline and comes back as an analyzable submission id.
REDSRC='.kernel reduce64\n.regs 13\n.smem 256\n'
REDSRC+='s2r r0, %tid\ns2r r1, %ctaid\ns2r r2, %ntid\nimad r3, r1, r2, r0\n'
REDSRC+='shl r4, r3, 2\ngld r5, r4\nshl r6, r0, 2\nsst r6, r5\nbar.sync\n'
for S in 32 16 8 4 2 1; do
    REDSRC+="isetp.lt p0, r0, $S\n@p0 iadd r7, r0, $S\n@p0 shl r7, r7, 2\n"
    REDSRC+='@p0 sld r8, r7\n@p0 sld r9, r6\n@p0 fadd r9, r9, r8\n@p0 sst r6, r9\nbar.sync\n'
done
REDSRC+='isetp.eq p1, r0, 0\nmov r10, 0\n@p1 sld r11, r10\n'
REDSRC+='@p1 shl r12, r1, 2\n@p1 iadd r12, r12, 1024\n@p1 gst r12, r11\nexit\n'
REDBUFS='[{"name":"in","elem":"f32","count":256,"fill":"random"},{"name":"out","elem":"f32","count":4,"fill":"zeros"}]'
SUBBODY="{\"label\":\"tree-reduction\",\"source\":\"$REDSRC\",\"grid\":4,\"block\":64,\"buffers\":$REDBUFS}"

RECEIPT=$(post "http://$ADDR/v1/kernels" "$SUBBODY" "$BINDIR/s1")
SID=$(grep -o '"id": "subm-[0-9a-f]*"' <<<"$RECEIPT" | head -1 | awk -F'"' '{print $4}')
if [ -z "$SID" ]; then
    echo "smoke: submission receipt has no subm- id: $RECEIPT" >&2
    exit 1
fi
grep -q '"kernel": "reduce64"' <<<"$RECEIPT" || {
    echo "smoke: receipt does not name the submitted kernel: $RECEIPT" >&2
    exit 1
}
# The listing now carries the submission alongside the built-ins.
curl -fsS "http://$ADDR/v1/kernels" | grep -q "\"$SID\"" || {
    echo "smoke: kernel listing does not include submission $SID" >&2
    exit 1
}
# ... and the submission store persisted its slot.
NSUB=$(ls "$SUBSDIR"/subm-*.json 2>/dev/null | wc -l)
if [ "$NSUB" -ne 1 ]; then
    echo "smoke: -subs-dir should hold 1 slot, has $NSUB" >&2
    exit 1
fi

# Analyze the submission: a cold MISS with a bottleneck verdict and
# the measure-only policy's marker, then a HIT with identical bytes.
SBODY="{\"kernel\":\"$SID\",\"device\":\"gtx285-6sm\"}"
SOUT=$(post "http://$ADDR/v1/analyze" "$SBODY" "$BINDIR/sa1")
for field in '"bottleneck"' '"verify_error": "unverified: user-submitted"'; do
    grep -q "$field" <<<"$SOUT" || {
        echo "smoke: submission analysis missing $field: $SOUT" >&2
        exit 1
    }
done
SOUT2=$(post "http://$ADDR/v1/analyze" "$SBODY" "$BINDIR/sa2")
if [ "$(xcache "$BINDIR/sa1")" != "MISS" ] || [ "$(xcache "$BINDIR/sa2")" != "HIT" ]; then
    echo "smoke: submission analyze X-Cache $(xcache "$BINDIR/sa1") then $(xcache "$BINDIR/sa2"), want MISS then HIT" >&2
    exit 1
fi
[ "$SOUT" = "$SOUT2" ] || { echo "smoke: cached submission analysis differs" >&2; exit 1; }

# Resubmitting the identical program+spec dedupes to the same id.
post "http://$ADDR/v1/kernels" "$SUBBODY" "$BINDIR/s2" | grep -q '"existing": true' || {
    echo "smoke: resubmission not reported as existing" >&2
    exit 1
}

# Rejections are 400s that say WHY. Out of envelope: same program,
# but the declared output buffer is too small for out[3].
BADBUFS='[{"name":"in","elem":"f32","count":256,"fill":"random"},{"name":"out","elem":"f32","count":1,"fill":"zeros"}]'
RCODE=$(curl -s -o "$BINDIR/rej1" -w '%{http_code}' -X POST "http://$ADDR/v1/kernels" \
    -d "{\"source\":\"$REDSRC\",\"grid\":4,\"block\":64,\"buffers\":$BADBUFS}")
if [ "$RCODE" != "400" ] || ! grep -q 'envelope' "$BINDIR/rej1"; then
    echo "smoke: out-of-envelope submission answered $RCODE: $(cat "$BINDIR/rej1")" >&2
    exit 1
fi
# Over budget: a 1024-thread block exceeds the block-size ceiling.
RCODE=$(curl -s -o "$BINDIR/rej2" -w '%{http_code}' -X POST "http://$ADDR/v1/kernels" \
    -d "{\"source\":\"$REDSRC\",\"grid\":4,\"block\":1024,\"buffers\":$REDBUFS}")
if [ "$RCODE" != "400" ] || ! grep -q 'ceiling' "$BINDIR/rej2"; then
    echo "smoke: over-budget submission answered $RCODE: $(cat "$BINDIR/rej2")" >&2
    exit 1
fi

# Cross-device comparison on a bandwidth-bound kernel: the full chip
# must rank above the 6-SM slice (more SMs keep the memory system
# busier), i.e. best = gtx285 and its speedup vs the slice > 1. The
# cold run calibrates gtx285; time both to show the cache-hit win.
CMPBODY='{"kernel":"spmv-ell","size":4096,"seed":7,"devices":["gtx285-6sm","gtx285"]}'
T0=$(date +%s%N)
CMP=$(post "http://$ADDR/v1/compare" "$CMPBODY" "$BINDIR/c1")
T1=$(date +%s%N)
CMP2=$(post "http://$ADDR/v1/compare" "$CMPBODY" "$BINDIR/c2")
T2=$(date +%s%N)
grep -q '"best": "gtx285"' <<<"$CMP" || {
    echo "smoke: compare should rank the full chip first: $CMP" >&2
    exit 1
}
grep -q '"baseline": "gtx285-6sm"' <<<"$CMP" || {
    echo "smoke: compare baseline should default to the first device: $CMP" >&2
    exit 1
}
# The first (best) entry's speedup vs the 6-SM baseline must be > 1.
BESTSPEED=$(awk -F'"speedup": ' 'NF>1{split($2,a,","); print a[1]; exit}' <<<"$CMP")
awk "BEGIN{exit !($BESTSPEED > 1)}" || {
    echo "smoke: full chip speedup $BESTSPEED should exceed 1: $CMP" >&2
    exit 1
}
if [ "$(xcache "$BINDIR/c1")" != "MISS" ] || [ "$(xcache "$BINDIR/c2")" != "HIT" ]; then
    echo "smoke: compare X-Cache $(xcache "$BINDIR/c1") then $(xcache "$BINDIR/c2"), want MISS then HIT" >&2
    exit 1
fi
if [ "$CMP" != "$CMP2" ]; then
    echo "smoke: cached compare body differs from the computed one" >&2
    exit 1
fi
COLD_MS=$(( (T1 - T0) / 1000000 ))
WARM_MS=$(( (T2 - T1) / 1000000 ))
if [ "$WARM_MS" -ge "$COLD_MS" ]; then
    echo "smoke: cache hit (${WARM_MS}ms) not faster than cold compare (${COLD_MS}ms)" >&2
    exit 1
fi

# Stats: the traffic above must show up as hits and misses.
STATS=$(curl -fsS "http://$ADDR/v1/stats")
HITS=$(grep -o '"hits": [0-9]*' <<<"$STATS" | head -1 | awk '{print $2}')
MISSES=$(grep -o '"misses": [0-9]*' <<<"$STATS" | head -1 | awk '{print $2}')
if [ "${HITS:-0}" -lt 3 ] || [ "${MISSES:-0}" -lt 1 ]; then
    echo "smoke: stats hits=$HITS misses=$MISSES, want >=3/>=1: $STATS" >&2
    exit 1
fi
grep -q '"submissions": 1' <<<"$STATS" || {
    echo "smoke: stats should gauge 1 resident submission: $STATS" >&2
    exit 1
}
grep -q '"uptime_seconds"' <<<"$STATS" || {
    echo "smoke: stats missing uptime_seconds: $STATS" >&2
    exit 1
}
grep -q '"requests"' <<<"$STATS" || {
    echo "smoke: stats missing per-op request counts: $STATS" >&2
    exit 1
}

# Observability: every response carries a request id (echoed when the
# client supplies one), /metrics parses as a Prometheus exposition
# with the known families, and a round trip bumps the analyze counter.
RID=$(awk -F': ' 'tolower($1)=="x-request-id"{gsub(/\r/,"",$2); print $2}' "$BINDIR/a1")
[ -n "$RID" ] || { echo "smoke: analyze response has no X-Request-ID" >&2; exit 1; }
ECHOED=$(curl -fsS -o /dev/null -D - -H 'X-Request-ID: smoke-rid-1' "http://$ADDR/healthz" \
    | awk -F': ' 'tolower($1)=="x-request-id"{gsub(/\r/,"",$2); print $2}')
if [ "$ECHOED" != "smoke-rid-1" ]; then
    echo "smoke: inbound X-Request-ID not echoed (got '$ECHOED')" >&2
    exit 1
fi

METRICS=$(curl -fsS "http://$ADDR/metrics")
[ -n "$METRICS" ] || { echo "smoke: /metrics is empty" >&2; exit 1; }
for fam in gpuperf_uptime_seconds gpuperf_requests_total gpuperf_http_requests_total \
           gpuperf_cache_misses_total gpuperf_engine_blocks_simulated_total \
           gpuperf_phase_seconds_bucket gpuperf_http_request_seconds_bucket; do
    grep -q "^$fam" <<<"$METRICS" || {
        echo "smoke: /metrics missing family $fam" >&2
        exit 1
    }
done
analyze_count() {
    curl -fsS "http://$ADDR/metrics" | awk '/^gpuperf_requests_total\{op="analyze"\}/{print $2}'
}
N0=$(analyze_count)
post "http://$ADDR/v1/analyze" "$BODY" "$BINDIR/am" >/dev/null
N1=$(analyze_count)
if [ "${N1:-0}" -ne $((N0 + 1)) ]; then
    echo "smoke: analyze round trip did not bump gpuperf_requests_total{op=\"analyze\"}: $N0 -> $N1" >&2
    exit 1
fi

# The pprof sidecar listener serves profiles off the service address.
# (grep -q would SIGPIPE curl under pipefail; buffer the body first.)
HEAP=$(curl -fsS "http://$PPROF/debug/pprof/heap?debug=1")
grep -q 'heap profile' <<<"$HEAP" || {
    echo "smoke: pprof heap profile not served on $PPROF" >&2
    exit 1
}

# -log-format json: the access log is structured, one object per
# request, carrying the route and the request id.
grep -q '"msg":"request".*"route":"/v1/analyze"' "$BINDIR/worker.log" || {
    echo "smoke: no JSON access-log line for /v1/analyze:" >&2
    tail -5 "$BINDIR/worker.log" >&2
    exit 1
}
grep -q '"id":"smoke-rid-1"' "$BINDIR/worker.log" || {
    echo "smoke: access log does not carry the client-supplied request id" >&2
    exit 1
}

# DELETE evicts the submission everywhere: the id 404s, the listing
# and the disk slot drop it, and a repeat delete 404s too.
DCODE=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/v1/kernels/$SID")
[ "$DCODE" = "204" ] || { echo "smoke: DELETE answered $DCODE, want 204" >&2; exit 1; }
DCODE=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/v1/kernels/$SID")
[ "$DCODE" = "404" ] || { echo "smoke: repeat DELETE answered $DCODE, want 404" >&2; exit 1; }
ACODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/analyze" -d "$SBODY")
[ "$ACODE" = "404" ] || { echo "smoke: analyze of evicted submission answered $ACODE, want 404" >&2; exit 1; }
if curl -fsS "http://$ADDR/v1/kernels" | grep -q "\"$SID\""; then
    echo "smoke: kernel listing still includes evicted submission $SID" >&2
    exit 1
fi
NSUB=$(ls "$SUBSDIR"/subm-*.json 2>/dev/null | wc -l || true)
if [ "$NSUB" -ne 0 ]; then
    echo "smoke: -subs-dir should be empty after eviction, has $NSUB slots" >&2
    exit 1
fi

# Both calibrations cached under distinct fingerprint keys, and the
# result cache holds content-addressed slots.
NCAL=$(ls "$CALDIR"/cal-*.json 2>/dev/null | wc -l)
if [ "$NCAL" -ne 2 ]; then
    echo "smoke: cache dir should hold 2 per-fingerprint calibrations, has $NCAL" >&2
    ls -la "$CALDIR" >&2 || true
    exit 1
fi
NRES=$(ls "$CACHEDIR"/res-*.json 2>/dev/null | wc -l)
if [ "$NRES" -lt 3 ]; then
    echo "smoke: result cache should hold >=3 slots, has $NRES" >&2
    exit 1
fi

kill "${PIDS[0]}" 2>/dev/null || true
wait "${PIDS[0]}" 2>/dev/null || true

BOTTLENECK=$(awk -F'"bottleneck": ' 'NF>1{split($2,a,","); print a[1]; exit}' <<<"$OUT")
SBOTTLENECK=$(awk -F'"bottleneck": ' 'NF>1{split($2,a,","); print a[1]; exit}' <<<"$SOUT")
TOP=$(grep -o '"top": "[^"]*"' <<<"$ADVICE")
echo "smoke: leg 1 ok (bottleneck $BOTTLENECK; advise $TOP; compare best gtx285 at ${BESTSPEED}x; cold compare ${COLD_MS}ms vs hit ${WARM_MS}ms; $NCAL calibrations, $NRES result slots; submission $SID bottleneck $SBOTTLENECK, admitted/analyzed/evicted)"

### Leg 2: 2-worker router ###################################################

W1=127.0.0.1:8098
W2=127.0.0.1:8099
RT=127.0.0.1:8100

"$BINDIR/gpuperfd" -addr "$W1" -devices gtx285-6sm,gtx285 \
    -cal-dir "$BINDIR/cal-w1" -cache-dir "$BINDIR/cache-w1" &
PIDS+=($!)
"$BINDIR/gpuperfd" -addr "$W2" -devices gtx285-6sm,gtx285 \
    -cal-dir "$BINDIR/cal-w2" -cache-dir "$BINDIR/cache-w2" &
PIDS+=($!)
wait_http "http://$W1/healthz"
wait_http "http://$W2/healthz"

"$BINDIR/gpuperfd" -addr "$RT" -devices gtx285-6sm,gtx285 \
    -route "$W1,$W2" &
PIDS+=($!)
# The router is "ok" once both workers answer their probes at all
# (workers still calibrating are routable), so wait for a 200.
for _ in $(seq 1 150); do
    RCODE=$(curl -s -o "$BINDIR/rh" -w '%{http_code}' "http://$RT/healthz" || true)
    [ "$RCODE" = "200" ] && break
    sleep 0.2
done
if [ "$RCODE" != "200" ] || ! grep -q '"shards"' "$BINDIR/rh"; then
    echo "smoke: router healthz $RCODE: $(cat "$BINDIR/rh" 2>/dev/null)" >&2
    exit 1
fi

# Analyze, advise and compare through the router, twice each:
# MISS/COALESCED never on the repeat — the second pass is all HITs.
for EP in analyze advise; do
    RBODY='{"kernel":"matmul16","size":64,"seed":11,"device":"gtx285"}'
    R1=$(post "http://$RT/v1/$EP" "$RBODY" "$BINDIR/r1")
    R2=$(post "http://$RT/v1/$EP" "$RBODY" "$BINDIR/r2")
    if [ "$(xcache "$BINDIR/r1")" != "MISS" ] || [ "$(xcache "$BINDIR/r2")" != "HIT" ]; then
        echo "smoke: router $EP X-Cache $(xcache "$BINDIR/r1") then $(xcache "$BINDIR/r2"), want MISS then HIT" >&2
        exit 1
    fi
    if [ "$R1" != "$R2" ]; then
        echo "smoke: router $EP repeat body differs" >&2
        exit 1
    fi
done
RCMPBODY='{"kernel":"matmul16","size":64,"seed":11,"devices":["gtx285-6sm","gtx285"]}'
T0=$(date +%s%N)
RC1=$(post "http://$RT/v1/compare" "$RCMPBODY" "$BINDIR/rc1")
T1=$(date +%s%N)
RC2=$(post "http://$RT/v1/compare" "$RCMPBODY" "$BINDIR/rc2")
T2=$(date +%s%N)
if [ "$(xcache "$BINDIR/rc1")" != "MISS" ] || [ "$(xcache "$BINDIR/rc2")" != "HIT" ]; then
    echo "smoke: router compare X-Cache $(xcache "$BINDIR/rc1") then $(xcache "$BINDIR/rc2"), want MISS then HIT" >&2
    exit 1
fi
[ "$RC1" = "$RC2" ] || { echo "smoke: router compare repeat body differs" >&2; exit 1; }
RCOLD_MS=$(( (T1 - T0) / 1000000 ))
RWARM_MS=$(( (T2 - T1) / 1000000 ))

# Submissions through the router: the POST lands on the shard the id
# hashes to, analyze reaches it from whichever shard owns the device
# (retrying on the id's owner when they differ), DELETE evicts it.
RREC=$(post "http://$RT/v1/kernels" "$SUBBODY" "$BINDIR/rs1")
RSID=$(grep -o '"id": "subm-[0-9a-f]*"' <<<"$RREC" | head -1 | awk -F'"' '{print $4}')
[ -n "$RSID" ] || { echo "smoke: router submission receipt has no id: $RREC" >&2; exit 1; }
RSBODY="{\"kernel\":\"$RSID\",\"device\":\"gtx285\"}"
RS1=$(post "http://$RT/v1/analyze" "$RSBODY" "$BINDIR/rsa1")
grep -q '"verify_error": "unverified: user-submitted"' <<<"$RS1" || {
    echo "smoke: router submission analysis missing the measure-only marker: $RS1" >&2
    exit 1
}
RS2=$(post "http://$RT/v1/analyze" "$RSBODY" "$BINDIR/rsa2")
if [ "$(xcache "$BINDIR/rsa1")" != "MISS" ] || [ "$(xcache "$BINDIR/rsa2")" != "HIT" ]; then
    echo "smoke: router submission analyze X-Cache $(xcache "$BINDIR/rsa1") then $(xcache "$BINDIR/rsa2"), want MISS then HIT" >&2
    exit 1
fi
[ "$RS1" = "$RS2" ] || { echo "smoke: router submission repeat body differs" >&2; exit 1; }
RDCODE=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://$RT/v1/kernels/$RSID")
[ "$RDCODE" = "204" ] || { echo "smoke: router DELETE answered $RDCODE, want 204" >&2; exit 1; }
RACODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$RT/v1/analyze" -d "$RSBODY")
[ "$RACODE" = "404" ] || { echo "smoke: router analyze of evicted submission answered $RACODE, want 404" >&2; exit 1; }

# The router's /metrics merges every worker's exposition under a
# worker="<url>" label next to the router's own series.
RMETRICS=$(curl -fsS "http://$RT/metrics")
grep -q '^gpuperf_router_worker_up{worker="http://' <<<"$RMETRICS" || {
    echo "smoke: router /metrics missing per-worker up gauge" >&2
    exit 1
}
grep -q '^gpuperf_router_uptime_seconds' <<<"$RMETRICS" || {
    echo "smoke: router /metrics missing its own uptime" >&2
    exit 1
}
grep -q "^gpuperf_requests_total{worker=\"http://$W1\"" <<<"$RMETRICS" &&
    grep -q "^gpuperf_requests_total{worker=\"http://$W2\"" <<<"$RMETRICS" || {
    echo "smoke: router /metrics does not carry both workers' request counters" >&2
    exit 1
}

# Aggregated stats across the worker set: a nonzero hit rate.
RSTATS=$(curl -fsS "http://$RT/v1/stats")
RHITS=$(grep -o '"hits": [0-9]*' <<<"$RSTATS" | head -1 | awk '{print $2}')
RMISSES=$(grep -o '"misses": [0-9]*' <<<"$RSTATS" | head -1 | awk '{print $2}')
if [ "${RHITS:-0}" -lt 3 ] || [ "${RMISSES:-0}" -lt 1 ]; then
    echo "smoke: router stats hits=$RHITS misses=$RMISSES: $RSTATS" >&2
    exit 1
fi

# Shard purity: each worker's calibration dir may hold only the
# fingerprints of devices the router's shard table assigns to it.
DEVJSON=$(curl -fsS "http://$RT/v1/devices")
RHEALTH=$(cat "$BINDIR/rh")
shard_of() { # device name -> owning worker URL
    grep -o "\"$1\": \"http[^\"]*\"" <<<"$RHEALTH" | head -1 | awk -F'"' '{print $4}'
}
fp_of() { # device name -> hardware fingerprint
    awk -F'"' -v want="$1" '
        $2=="name" {n=$4}
        $2=="fingerprint" && n==want {print $4; exit}' <<<"$DEVJSON"
}
check_purity() { # worker addr, cal dir
    local waddr=$1 wdir=$2 f fp owned
    for f in "$wdir"/cal-*.json; do
        [ -e "$f" ] || continue
        fp=$(basename "$f"); fp=${fp#cal-}; fp=${fp%.json}
        owned=no
        for dev in gtx285-6sm gtx285; do
            if [ "$(fp_of "$dev")" = "$fp" ] && [ "$(shard_of "$dev")" = "http://$waddr" ]; then
                owned=yes
            fi
        done
        if [ "$owned" != "yes" ]; then
            echo "smoke: worker $waddr calibrated fingerprint $fp outside its shard" >&2
            echo "smoke: shard table: $(grep -o '"shards": {[^}]*}' <<<"$RHEALTH")" >&2
            exit 1
        fi
    done
}
check_purity "$W1" "$BINDIR/cal-w1"
check_purity "$W2" "$BINDIR/cal-w2"
# A worker owning zero shards never creates its cal dir; don't let
# pipefail turn that ls miss into a script death.
NCAL1=$(ls "$BINDIR/cal-w1"/cal-*.json 2>/dev/null | wc -l || true)
NCAL2=$(ls "$BINDIR/cal-w2"/cal-*.json 2>/dev/null | wc -l || true)
if [ $((NCAL1 + NCAL2)) -ne 2 ]; then
    echo "smoke: the two shards should hold 2 calibrations total, have $NCAL1+$NCAL2" >&2
    exit 1
fi

echo "smoke: leg 2 ok (router over $W1/$W2; cold compare ${RCOLD_MS}ms vs hit ${RWARM_MS}ms; fleet hits=$RHITS misses=$RMISSES; shard calibrations $NCAL1+$NCAL2; submission $RSID routed/analyzed/evicted)"
echo "smoke: ok"
