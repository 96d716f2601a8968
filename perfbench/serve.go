package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regimap/internal/arch"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/server"
	"regimap/internal/sim"
)

const (
	serveRequests = 6000 // requests in one pass's fixed sequence
	smokeRequests = 200
	// serveSegments is how many parts a pass's sequence is sent in, with a
	// reference chunk before each (see ref.go).
	serveSegments = 24
	jobShare      = 0.10 // share of the sequence that submits async jobs
	zipfS         = 1.1  // skew of the key popularity
	// rankSeed fixes which keys are popular. It is not the workload seed:
	// the seed orders the sequence, and a seed that made a different key
	// hottest would move every mean with it.
	rankSeed = 0x5eed
)

var (
	serveArchs   = []string{"paper-4x4", "adres-4x4", "onehop-4x4"}
	serveEngines = []string{"regimap", "ems"}
)

// serveKey is one distinct /v1/map query.
type serveKey struct{ kernel, arch, engine string }

func (k serveKey) String() string { return k.engine + "/" + k.arch + "/" + k.kernel }

func (k serveKey) body(idem string) []byte {
	req := server.JobSubmitRequest{MapRequest: server.MapRequest{Kernel: k.kernel, Arch: k.arch, Mapper: k.engine}, IdempotencyKey: idem}
	b, _ := json.Marshal(req) // plain strings: cannot fail
	return b
}

// request is one entry of the sequence: a synchronous map or a job submit.
type request struct {
	key  serveKey
	job  bool
	idem string
}

// serveKeys is every distinct query, in a fixed popularity order.
func serveKeys() []serveKey {
	var keys []serveKey
	for _, k := range kernels.Names() {
		for _, a := range serveArchs {
			for _, e := range serveEngines {
				keys = append(keys, serveKey{k, a, e})
			}
		}
	}
	ranked := make([]serveKey, len(keys))
	for i, j := range rand.New(rand.NewSource(rankSeed)).Perm(len(keys)) {
		ranked[i] = keys[j]
	}
	return ranked
}

// drawSequence draws the request sequence from seed. Its content is fixed:
// each key is asked for in proportion to its Zipf weight (key i of the
// popularity order weighs (i+1)^-zipfS), and every 1/jobShare-th request of
// each key is a job submit with a unique idempotency key. The seed only
// orders it. Which keys miss the cache, and so how much engine work a pass
// does, is then the same at every seed; drawing the keys themselves from the
// seed moved a pass's work by a fifth, as rarely asked kernels that cost
// hundreds of milliseconds to map came and went.
func drawSequence(seed int64, n int) []request {
	keys := serveKeys()
	weights := make([]float64, len(keys))
	total := 0.0
	for i := range keys {
		weights[i] = math.Pow(float64(i+1), -zipfS)
		total += weights[i]
	}
	// Largest remainders: floor every key's share, then hand the requests
	// left over to the keys with the largest fractions.
	counts := make([]int, len(keys))
	frac := make([]int, len(keys))
	left := n
	for i, w := range weights {
		share := float64(n) * w / total
		counts[i] = int(share)
		left -= counts[i]
		frac[i] = i
	}
	sort.SliceStable(frac, func(a, b int) bool {
		fa := float64(n)*weights[frac[a]]/total - float64(counts[frac[a]])
		fb := float64(n)*weights[frac[b]]/total - float64(counts[frac[b]])
		return fa > fb
	})
	for _, i := range frac[:left] {
		counts[i]++
	}
	every := int(math.Round(1 / jobShare))
	var seq []request
	for i, k := range keys {
		for j := 0; j < counts[i]; j++ {
			seq = append(seq, request{key: k, job: j%every == every-1})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	for i := range seq {
		if seq[i].job {
			seq[i].idem = fmt.Sprintf("perfbench-%d-%d", seed, i)
		}
	}
	return seq
}

// confirmed caches keys whose 422 no-mapping answer a direct engine call
// has already confirmed; the verdict is deterministic, so once per process
// is enough.
var confirmed sync.Map // serveKey -> error (nil: confirmed)

type serveInstance struct {
	traced bool
	seq    []request
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	sink   *obs.MemSink
	base   string
	client *http.Client

	// What the one pass of this instance learned about each key.
	mu     sync.Mutex
	states map[serveKey]*keyState
}

// setupServeMix starts a fresh regimapd in process: default configuration,
// its job WAL in a fresh directory, a loopback listener.
func setupServeMix(o options, traced bool) (instance, error) {
	n := serveRequests
	if o.smoke {
		n = smokeRequests
	}
	s := &serveInstance{traced: traced, seq: drawSequence(o.seed, n), served: make(chan error, 1),
		states: map[serveKey]*keyState{}}
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	cfg := server.Config{WALDir: dir}
	if traced {
		s.sink = &obs.MemSink{}
		cfg.TraceSink = s.sink
	}
	s.srv, err = server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	clients := runtime.NumCPU()
	s.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
	}
	return s, nil
}

func (s *serveInstance) counts() map[string]int {
	jobs := 0
	for _, r := range s.seq {
		if r.job {
			jobs++
		}
	}
	return map[string]int{"requests": len(s.seq), "map_requests": len(s.seq) - jobs, "job_submits": jobs,
		"clients": runtime.NumCPU(), "keys": len(serveKeys())}
}

// close stops the listener, lets the jobs finish, and removes the WAL.
func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	if err := s.srv.FinishJobs(ctx); err != nil {
		s.srv.Close()
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// answer is one response of the timed phase, reduced to what the checks
// need; the full body is kept only for the first 200 of each key.
type answer struct {
	status    int
	lat       time.Duration
	cached    bool
	collapsed bool
	jobID     string
	err       error
}

// mapBody is the part of a 200 /v1/map body the checks compare: everything
// but the cached and collapsed flags, which differ between a miss and the
// hits after it.
type mapBody struct {
	Mapper    string          `json:"mapper"`
	Kernel    string          `json:"kernel"`
	II        int             `json:"ii"`
	MII       int             `json:"mii"`
	Perf      float64         `json:"perf"`
	Rounds    int             `json:"rounds"`
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed"`
	ElapsedUS int64           `json:"elapsed_us"`
	Mapping   json.RawMessage `json:"mapping"`
	Artifact  string          `json:"artifact"`
}

func (b *mapBody) sameAnswer(o *mapBody) bool {
	return b.Mapper == o.Mapper && b.Kernel == o.Kernel && b.II == o.II && b.MII == o.MII &&
		b.Perf == o.Perf && b.Rounds == o.Rounds && b.ElapsedUS == o.ElapsedUS &&
		b.Artifact == o.Artifact && bytes.Equal(b.Mapping, o.Mapping)
}

// keyState is what the pass learned about one key.
type keyState struct {
	first  *mapBody // first 200 body
	nomap  bool     // answered 422 no-mapping
	differ bool     // a later 200 disagreed with the first
}

func (s *serveInstance) pass(ctx context.Context) *passResult {
	p := newPass(s.traced)
	answers := make([]answer, len(s.seq))
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	// The sequence runs in segments with a reference chunk before each, so
	// the reference samples the host all through the pass; the clients
	// finish their requests at each segment's end.
	seg := (len(s.seq) + serveSegments - 1) / serveSegments
	for lo := 0; lo < len(s.seq); lo += seg {
		p.sampleRef(1)
		s.runSegment(ctx, answers, lo, min(lo+seg, len(s.seq)))
	}
	p.wall = time.Since(t0) - sum(p.ref) // chunk wall time taken as its CPU time
	// The jobs the sequence submitted are part of its work: the pass's CPU
	// time runs until every one of them has ended.
	views := s.awaitJobs(ctx, answers)
	p.sampleRef(1)
	p.cpu = cpuTime() - c0 - sum(p.ref)

	s.verifyMaps(ctx, p, answers)
	s.verifyJobs(ctx, p, answers, views)
	if s.traced {
		s.layers(p)
	}
	return p
}

// runSegment sends requests lo..hi-1 of the sequence from nproc
// closed-loop clients and waits for their answers.
func (s *serveInstance) runSegment(ctx context.Context, answers []answer, lo, hi int) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				req := s.seq[i]
				a, body := s.send(ctx, req)
				if a.err == nil && !req.job {
					a.err = s.record(req.key, &a, body)
				}
				answers[i] = a
			}
		}()
	}
	wg.Wait()
}

// send issues one request and times it to the last byte of the body.
func (s *serveInstance) send(ctx context.Context, req request) (answer, []byte) {
	path := "/v1/map"
	if req.job {
		path = "/v1/jobs"
	}
	t0 := time.Now()
	status, body, err := s.post(ctx, path, req.key.body(req.idem))
	a := answer{status: status, lat: time.Since(t0), err: err}
	if err != nil || !req.job {
		return a, body
	}
	if status != http.StatusAccepted {
		a.err = fmt.Errorf("job submit answered %d: %s", status, bytes.TrimSpace(body))
		return a, nil
	}
	var v server.JobView
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		a.err = fmt.Errorf("job submit ack %q: %v", body, err)
	}
	a.jobID = v.ID
	return a, nil
}

func (s *serveInstance) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	return s.do(hr)
}

func (s *serveInstance) get(ctx context.Context, path string) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return s.do(hr)
}

func (s *serveInstance) do(hr *http.Request) (int, []byte, error) {
	resp, err := s.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// record classifies one /v1/map answer and keeps or compares its body. A
// 422 no-mapping is a correct answer; every other non-200 is a failure.
func (s *serveInstance) record(k serveKey, a *answer, body []byte) error {
	switch a.status {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		var e server.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Class != "no-mapping" {
			return fmt.Errorf("%s: 422 with class %q", k, e.Class)
		}
		s.mu.Lock()
		s.stateOf(k).nomap = true
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("%s: answered %d: %s", k, a.status, bytes.TrimSpace(body))
	}
	var b mapBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("%s: decode answer: %w", k, err)
	}
	a.cached, a.collapsed = b.Cached, b.Collapsed
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateOf(k)
	switch {
	case st.first == nil:
		st.first = &b
	case !st.first.sameAnswer(&b):
		st.differ = true
	}
	return nil
}

// stateOf returns the key's state, creating it; s.mu must be held.
func (s *serveInstance) stateOf(k serveKey) *keyState {
	st := s.states[k]
	if st == nil {
		st = &keyState{}
		s.states[k] = st
	}
	return st
}

// verifyMaps certifies every distinct answer once and books every /v1/map
// request: each distinct mapping is decoded by the wire decoder and
// simulated, each distinct no-mapping answer is confirmed by a direct engine
// call, and every later answer for a key must equal the first.
func (s *serveInstance) verifyMaps(ctx context.Context, p *passResult, answers []answer) {
	good := map[serveKey]bool{}
	p.sig.II = map[string]int{}
	for k, st := range s.states {
		switch {
		case st.first != nil && st.nomap:
			p.fail("%s: answered both 200 and 422", k)
		case st.differ:
			p.fail("%s: two 200 answers differ beyond the cached flags", k)
		case st.first != nil:
			good[k] = s.certifyBody(p, k, st.first)
			if good[k] {
				p.sig.II[k.String()] = st.first.II
				if k.engine == "regimap" {
					p.sig.CoreAttempts += st.first.Rounds
				}
			}
		case st.nomap:
			good[k] = confirmNoMapping(ctx, p, k)
			p.sig.II[k.String()] = 0
		}
	}
	for i, a := range answers {
		req := s.seq[i]
		if req.job {
			continue
		}
		p.attempted++
		p.lat["op"] = append(p.lat["op"], a.lat)
		if a.err != nil {
			p.fail("request %d: %v", i, a.err)
			continue
		}
		st := s.states[req.key]
		if !good[req.key] {
			p.failed++ // the key's failure is already described
			continue
		}
		p.answers++
		// A collapsed answer waited for another request's computation, so it
		// is neither a hit nor a miss.
		switch {
		case st.nomap, a.collapsed:
		case a.cached:
			p.lat["hit"] = append(p.lat["hit"], a.lat)
		default:
			p.lat["miss"] = append(p.lat["miss"], a.lat)
		}
		if st.first != nil {
			p.mapped++
			p.perfSum += float64(st.first.MII) / float64(st.first.II)
		}
	}
	p.sig.PerfMean = p.perfSum / float64(max(p.answers, 1))
	p.sig.MappedFrac = float64(p.mapped) / float64(max(p.answers, 1))
}

// certifyBody decodes a 200 answer's mapping through the wire decoder (which
// re-audits legality) and simulates it.
func (s *serveInstance) certifyBody(p *passResult, k serveKey, b *mapBody) bool {
	p.checks++
	var m mapping.Mapping
	if err := json.Unmarshal(b.Mapping, &m); err != nil {
		p.fail("%s: %v", k, err)
		return false
	}
	t0 := time.Now()
	err := sim.Check(&m, simIters)
	p.layers["sim.check_ms"] += ms(time.Since(t0))
	switch {
	case err != nil:
		p.fail("%s: simulation: %v", k, err)
	case m.II != b.II || b.II < b.MII || b.MII < 1 || m.D.Name != k.kernel || b.Kernel != k.kernel || b.Mapper != k.engine:
		p.fail("%s: answer says %s/%s at II %d (MII %d), mapping is %s at II %d", k, b.Mapper, b.Kernel, b.II, b.MII, m.D.Name, m.II)
	default:
		return true
	}
	return false
}

// confirmNoMapping checks a 422 answer by calling the engine directly.
func confirmNoMapping(ctx context.Context, p *passResult, k serveKey) bool {
	p.checks++
	v, ok := confirmed.Load(k)
	if !ok {
		v = directNoMapping(ctx, k)
		confirmed.Store(k, v)
	}
	if err, _ := v.(error); err != nil {
		p.fail("%s: 422 not confirmed: %v", k, err)
		return false
	}
	return true
}

func directNoMapping(ctx context.Context, k serveKey) error {
	kern, ok := kernels.ByName(k.kernel)
	if !ok {
		return fmt.Errorf("unknown kernel")
	}
	c, err := arch.Resolve(k.arch)
	if err != nil {
		return err
	}
	eng, ok := engine.Lookup(k.engine)
	if !ok {
		return fmt.Errorf("unknown engine")
	}
	_, err = eng.Map(ctx, kern.Build(), c, engine.Options{})
	if !errors.Is(err, maperr.ErrNoMapping) || errors.Is(err, maperr.ErrAborted) {
		return fmt.Errorf("direct call returned %v", err)
	}
	return nil
}

// jobView is a polled job's final view, or why it has none.
type jobView struct {
	v   server.JobView
	err error
}

// awaitJobs polls every acknowledged job of the sequence to a terminal
// state, indexed like answers.
func (s *serveInstance) awaitJobs(ctx context.Context, answers []answer) map[int]jobView {
	deadline := time.Now().Add(2 * time.Minute)
	out := map[int]jobView{}
	for i, a := range answers {
		if s.seq[i].job && a.err == nil {
			v, err := s.pollJob(ctx, a.jobID, deadline)
			out[i] = jobView{v, err}
		}
	}
	return out
}

// verifyJobs checks every acknowledged job's final view against the
// synchronous answer for the same query on the engine the job ran on.
func (s *serveInstance) verifyJobs(ctx context.Context, p *passResult, answers []answer, views map[int]jobView) {
	for i, a := range answers {
		req := s.seq[i]
		if !req.job {
			continue
		}
		p.attempted++
		p.lat["job"] = append(p.lat["job"], a.lat)
		if a.err != nil {
			p.fail("job request %d: %v", i, a.err)
			continue
		}
		v, err := views[i].v, views[i].err
		if err != nil {
			p.fail("job %s (%s): %v", a.jobID, req.key, err)
			continue
		}
		if v.FinishedMS >= v.CreatedMS && v.CreatedMS > 0 {
			p.lat["turnaround"] = append(p.lat["turnaround"], time.Duration(v.FinishedMS-v.CreatedMS)*time.Millisecond)
		}
		ran := req.key
		ran.engine = v.Mapper
		if err := s.checkJob(ctx, p, ran, v); err != nil {
			p.fail("job %s (%s): %v", a.jobID, req.key, err)
		}
	}
}

func (s *serveInstance) pollJob(ctx context.Context, id string, deadline time.Time) (server.JobView, error) {
	for {
		status, body, err := s.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return server.JobView{}, err
		}
		if status != http.StatusOK {
			return server.JobView{}, fmt.Errorf("poll answered %d", status)
		}
		var v server.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			return v, err
		}
		if v.State == "done" || v.State == "failed" {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("still %s at the deadline", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkJob compares a finished job with the synchronous answer for the
// query it ran, asking the server now when the timed phase never did.
func (s *serveInstance) checkJob(ctx context.Context, p *passResult, k serveKey, v server.JobView) error {
	p.checks++
	st := s.states[k]
	if st == nil || (st.first == nil && !st.nomap) {
		status, body, err := s.post(ctx, "/v1/map", k.body(""))
		if err != nil {
			return err
		}
		if err := s.record(k, &answer{status: status}, body); err != nil {
			return err
		}
		st = s.states[k]
		if st.first != nil && !s.certifyBody(p, k, st.first) {
			return fmt.Errorf("synchronous answer failed its checks")
		}
		if st.nomap && !confirmNoMapping(ctx, p, k) {
			return fmt.Errorf("synchronous no-mapping answer not confirmed")
		}
	}
	switch v.State {
	case "failed":
		if v.Class != "no-mapping" || !st.nomap {
			return fmt.Errorf("failed with class %q: %s", v.Class, v.Error)
		}
		return nil
	case "done":
		if st.first == nil {
			return fmt.Errorf("done, but the synchronous answer was no-mapping")
		}
		var b mapBody
		if err := json.Unmarshal(v.Result, &b); err != nil {
			return fmt.Errorf("decode result: %w", err)
		}
		if !st.first.sameAnswer(&b) {
			return fmt.Errorf("result differs from the synchronous answer beyond the cached flags")
		}
		return nil
	}
	return fmt.Errorf("state %q", v.State)
}

// layers fills the serve-mix per-layer metrics of a traced pass.
func (s *serveInstance) layers(p *passResult) {
	L := p.layers
	L["req_per_s"] = float64(len(s.seq)) / p.wall.Seconds()
	L["hit_ms_p50"] = quantileMs(p.lat["hit"], 0.5)
	L["hit_ms_p90"] = quantileMs(p.lat["hit"], 0.9)
	L["miss_ms_p50"] = quantileMs(p.lat["miss"], 0.5)
	L["miss_ms_p90"] = quantileMs(p.lat["miss"], 0.9)
	L["job_ack_ms_p50"] = quantileMs(p.lat["job"], 0.5)
	L["job_ack_ms_p90"] = quantileMs(p.lat["job"], 0.9)
	L["jobs.turnaround_ms_p50"] = quantileMs(p.lat["turnaround"], 0.5)

	// Engine cost of every computed answer, and the regimap share of it
	// that the engine's own spans must account for.
	var engineMiss []time.Duration
	var regimapElapsed time.Duration
	for _, st := range s.states {
		if st.first == nil {
			continue
		}
		d := time.Duration(st.first.ElapsedUS) * time.Microsecond
		engineMiss = append(engineMiss, d)
		if st.first.Mapper == "regimap" {
			regimapElapsed += d
		}
	}
	L["engine.miss_ms_p50"] = quantileMs(engineMiss, 0.5)
	L["engine.miss_ms_p90"] = quantileMs(engineMiss, 0.9)

	var reqSpans []time.Duration
	var regimap []obs.Event
	for _, e := range s.sink.Events() {
		switch {
		case e.Name == "server.request":
			reqSpans = append(reqSpans, e.Dur)
		case e.Engine == "regimap":
			regimap = append(regimap, e)
		}
	}
	L["server.request_ms_p50"] = quantileMs(reqSpans, 0.5)
	p.covered += addCoreLayers(p, regimap)
	p.spanned += regimapElapsed
	L["core.map_ms"] = ms(regimapElapsed)
	L["core.attempts"] = float64(p.sig.CoreAttempts)

	if m, err := s.scrape(); err != nil {
		p.fail("scrape /metrics: %v", err)
	} else {
		hits, misses := m["regimapd_cache_hits_total"], m["regimapd_cache_misses_total"]
		L["memo.hits"] = hits
		L["memo.misses"] = misses
		L["memo.collapsed"] = m["regimapd_cache_collapsed_total"]
		if hits+misses > 0 {
			L["memo.hit_frac"] = hits / (hits + misses)
		}
		L["server.shed"] = m["regimapd_shed_total"]
		L["jobs.wal_records"] = m["regimapd_wal_records_total"]
		L["jobs.completed"] = m[`regimapd_jobs_completed_total{status="done"}`] + m[`regimapd_jobs_completed_total{status="failed"}`]
		L["jobs.degraded"] = m["regimapd_jobs_degraded_total"]
	}
	replayHitPath(p, s.states)
}

// scrape reads the server's Prometheus text metrics into name -> value,
// where the name keeps its label set.
func (s *serveInstance) scrape() (map[string]float64, error) {
	status, body, err := s.get(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("answered %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// replayHitPath times the public calls a cache hit makes before the cache
// lookup — kernel build, fabric resolve, and both fingerprints — over the
// pass's distinct keys, reporting the mean cost of each.
func replayHitPath(p *passResult, states map[serveKey]*keyState) {
	var build, resolve, dfp, afp time.Duration
	n := 0
	for k := range states {
		kern, ok := kernels.ByName(k.kernel)
		if !ok {
			continue
		}
		t0 := time.Now()
		d := kern.Build()
		t1 := time.Now()
		c, err := arch.Resolve(k.arch)
		t2 := time.Now()
		if err != nil {
			continue
		}
		d.Fingerprint()
		t3 := time.Now()
		c.Fingerprint()
		t4 := time.Now()
		build += t1.Sub(t0)
		resolve += t2.Sub(t1)
		dfp += t3.Sub(t2)
		afp += t4.Sub(t3)
		n++
	}
	if n == 0 {
		return
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	p.layers["kernels.build_us"] = us(build)
	p.layers["arch.resolve_us"] = us(resolve)
	p.layers["dfg.fingerprint_us"] = us(dfp)
	p.layers["arch.fingerprint_us"] = us(afp)
}
