package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dpsadopt/internal/api"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/follow"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// serveSpec sizes the serve-live workload.
type serveSpec struct {
	Scale    int
	BaseDays int // days in the boot snapshot; the rest of the window goes live
	Seed     int64
	Rate     float64       // open-loop requests per second
	Poll     time.Duration // follower poll interval
	Dir      string        // fixtures and coordination directories
	Src      string        // hash of the program's sources; keys the boot snapshot
}

const (
	followBatch  = 64 // follow's default MaxBatch, which dpsapi keeps
	genSenders   = 2  // generator connections, at most nproc
	reqTimeout   = 5 * time.Second
	liveDeadline = 60 * time.Second
)

// fixture is the boot snapshot's path. It is keyed by the program's
// sources as well as by size, so a change to the store writer, its
// format or measure boots from a snapshot the changed code wrote.
func (s serveSpec) fixture() string {
	return filepath.Join(s.Dir, fmt.Sprintf("base-s%d-d%d-%s.dpsa", s.Scale, s.BaseDays, s.Src))
}

// prepareFixture measures the boot snapshot once per (scale, days,
// sources) and removes snapshots of other sources; it is an input of the
// workload, not a measured step.
func prepareFixture(s serveSpec) error {
	if _, err := os.Stat(s.fixture()); err == nil {
		return nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	stale, err := filepath.Glob(filepath.Join(s.Dir, "base-*.dpsa"))
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	w, err := worldsim.New(worldsim.DefaultConfig(s.Scale))
	if err != nil {
		return err
	}
	st := store.New()
	r := w.Cfg.Window
	r.End = r.Start + simtime.Day(s.BaseDays)
	// One worker writes every partition in task order, so the snapshot's
	// layout does not depend on scheduling.
	if err := measure.New(w, st, measure.Config{Mode: measure.ModeDirect, Workers: 1}).RunRange(context.Background(), r); err != nil {
		return err
	}
	return st.Save(s.fixture())
}

// serveEnv is what every pass of one run shares.
type serveEnv struct {
	spec      serveSpec
	world     *worldsim.World
	parts     []coord.Partition // the live partitions
	domains   []string          // every world domain
	providers []string
	days      []simtime.Day // the whole window
}

func newServeEnv(s serveSpec) (*serveEnv, error) {
	w, err := worldsim.New(worldsim.DefaultConfig(s.Scale))
	if err != nil {
		return nil, err
	}
	refs, err := core.GroundTruth()
	if err != nil {
		return nil, err
	}
	e := &serveEnv{spec: s, world: w}
	probe := measure.New(w, store.New(), measure.Config{Mode: measure.ModeDirect, Workers: 1})
	for day := w.Cfg.Window.Start; day < w.Cfg.Window.End; day++ {
		e.days = append(e.days, day)
		if int(day-w.Cfg.Window.Start) < s.BaseDays {
			continue
		}
		for _, src := range probe.DaySources(day) {
			e.parts = append(e.parts, coord.Partition{Source: src, Day: day})
		}
	}
	for _, d := range w.Domains {
		e.domains = append(e.domains, d.Name)
	}
	for _, p := range refs.Providers {
		e.providers = append(e.providers, p.Name)
	}
	return e, nil
}

// request is one generated query.
type request struct {
	route string // "domain", "series" or "day"
	path  string
}

// Route shares of the open-loop mix. The repository has no query log to
// take them from; they are an assumption: most traffic asks whether a
// domain uses a protection service, and the two dashboard routes share
// the rest.
const domainShare, seriesShare = 0.8, 0.1

// requests draws the open-loop mix from the seed: Zipf-skewed
// /v1/domain over every world domain, plus fixed shares of provider
// series and day summaries.
func (e *serveEnv) requests(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	keys := newZipfKeys(rng, e.domains)
	out := make([]request, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < domainShare:
			out[i] = request{"domain", "/v1/domain/" + keys.next()}
		case u < domainShare+seriesShare:
			out[i] = request{"series", "/v1/provider/" + url.PathEscape(e.providers[rng.Intn(len(e.providers))]) + "/series"}
		default:
			out[i] = request{"day", "/v1/day/" + e.days[rng.Intn(len(e.days))].String()}
		}
	}
	return out
}

// expected reports whether a status is a valid answer for a route: an
// undetected domain or a not-yet-live day is a 404, not a failure.
func expected(route string, status int) bool {
	switch route {
	case "series":
		return status == http.StatusOK
	default:
		return status == http.StatusOK || status == http.StatusNotFound
	}
}

// liveServer is one booted api.Server behind a loopback HTTP listener.
type liveServer struct {
	srv    *api.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
	keys   []store.PartitionKey // partitions in the boot snapshot
	// refs is this server's own ground truth. core.References caches a
	// matcher for every store dictionary it ever detected against, so a
	// References shared across boots would keep every earlier boot's
	// dictionaries alive; each boot gets a fresh one, as a fresh dpsapi
	// process would.
	refs *core.References
}

type bootTimes struct {
	open, build, total time.Duration
}

// boot opens the snapshot, builds the index and serves it; set-up ends
// when the first query is answered.
func (e *serveEnv) boot(wrap func(http.Handler) http.Handler) (*liveServer, bootTimes, error) {
	var bt bootTimes
	refs, err := core.GroundTruth()
	if err != nil {
		return nil, bt, err
	}
	t0 := time.Now()
	rd, err := store.Open(e.spec.fixture())
	if err != nil {
		return nil, bt, err
	}
	bt.open = time.Since(t0)
	idx, err := api.NewIndexReader(rd, refs)
	keys := rd.Keys()
	rd.Close()
	if err != nil {
		return nil, bt, err
	}
	bt.build = time.Since(t0) - bt.open
	ls := &liveServer{srv: api.NewServer(idx, api.Config{}), keys: keys, refs: refs, served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, bt, err
	}
	h := ls.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ls.hs = &http.Server{Handler: h}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln)
	}()
	ls.url = "http://" + ln.Addr().String()
	ls.client = &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: genSenders, MaxIdleConnsPerHost: genSenders,
			DisableCompression: true,
		},
	}
	status, err := ls.get("/v1/day/" + e.days[0].String())
	if err != nil || status != http.StatusOK {
		ls.close()
		return nil, bt, fmt.Errorf("first query: status %d: %v", status, err)
	}
	bt.total = time.Since(t0)
	return ls, bt, nil
}

func (ls *liveServer) get(path string) (int, error) {
	resp, err := ls.client.Get(ls.url + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.served
	ls.client.CloseIdleConnections()
}

// answers digests the server's answer to every /v1/domain (each world
// domain), /v1/provider/{name}/series and /v1/day route, status and
// body, through its handler.
func (e *serveEnv) answers(h http.Handler) string {
	hs := sha256.New()
	ask := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		fmt.Fprintf(hs, "%s %d %s\n", path, rec.Code, rec.Body.Bytes())
	}
	for _, d := range e.domains {
		ask("/v1/domain/" + d)
	}
	for _, p := range e.providers {
		ask("/v1/provider/" + url.PathEscape(p) + "/series")
	}
	for _, d := range e.days {
		ask("/v1/day/" + d.String())
	}
	return sum(hs)
}

// timingSink is the follower's sink with Publish timed.
type timingSink struct {
	srv     *api.Server
	publish Layer
}

func (s *timingSink) Index() *api.Index { return s.srv.Index() }
func (s *timingSink) Publish(idx *api.Index, d *api.Delta) {
	s.publish.Time(func() { s.srv.Publish(idx, d) })
}

// routeTimer wraps the API handler and records handler time per route.
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	us   map[string]*Dist
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	route := "day"
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/domain/"):
		route = "domain"
	case strings.HasPrefix(r.URL.Path, "/v1/provider/"):
		route = "series"
	}
	t.mu.Lock()
	if t.us[route] == nil {
		t.us[route] = &Dist{}
	}
	t.us[route].Add(float64(d) / float64(time.Microsecond))
	t.mu.Unlock()
}

// livePass is one measured live phase.
type livePass struct {
	Wall, CPU                          time.Duration
	Boot                               bootTimes
	Query                              Dist // ms from due time
	Late                               Dist // ms
	Fresh                              Dist // ms from work return to the end of the applying Poll
	PollS                              Dist // s per Poll call
	Sent                               int
	Failed                             int
	Answers                            string
	Applied                            int
	Retried                            int // work returns fenced off and measured again
	Coord                              coord.Stats
	RunPart                            time.Duration // summed measure.RunPartition time
	Publish                            time.Duration
	Handler                            map[string]*Dist
	CacheHits, CacheMisses, CacheInval int64
	coordDir                           string
}

// runLive boots a server from the snapshot, then runs an in-process
// coordinator over the live partitions while a follower folds them in
// and the open-loop generator queries over loopback HTTP. It ends when
// the last live partition is queryable.
func (e *serveEnv) runLive(ctx context.Context, pass int, traced bool) (*livePass, error) {
	res := &livePass{coordDir: filepath.Join(e.spec.Dir, fmt.Sprintf("coord-%d", pass))}
	var timer *routeTimer
	var wrap func(http.Handler) http.Handler
	if traced {
		timer = &routeTimer{us: make(map[string]*Dist)}
		wrap = func(h http.Handler) http.Handler { timer.next = h; return timer }
	}
	ls, bt, err := e.boot(wrap)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	res.Boot = bt

	if err := os.RemoveAll(res.coordDir); err != nil {
		return nil, err
	}
	type ret struct {
		p coord.Partition
		t time.Time
	}
	var mu sync.Mutex
	var returned []ret // in the order the work function returned them
	work := func(ctx context.Context, p coord.Partition, attempt int) (*store.Store, error) {
		s := store.New()
		pipe := measure.New(e.world, s, measure.Config{Mode: measure.ModeDirect, Workers: 1})
		t := time.Now()
		if err := pipe.RunPartition(ctx, p.Source, p.Day); err != nil {
			return nil, err
		}
		now := time.Now()
		mu.Lock()
		res.RunPart += now.Sub(t)
		returned = append(returned, ret{p, now})
		mu.Unlock()
		return s, nil
	}
	c, err := coord.New(coord.Config{Dir: res.coordDir, Workers: 1, Work: work}, e.parts)
	if err != nil {
		return nil, err
	}
	var sink follow.Sink = ls.srv
	ts := &timingSink{srv: ls.srv}
	if traced {
		sink = ts
	}
	f, err := follow.New(follow.Config{Target: res.coordDir, Refs: ls.refs, Sink: sink, Poll: e.spec.Poll, MaxBatch: followBatch})
	if err != nil {
		return nil, err
	}
	f.Seed(ls.keys)

	reqs := e.requests(e.spec.Seed, int(e.spec.Rate*liveDeadline.Seconds()))
	gen := newOpenLoop(e.spec.Rate, genSenders, wallClock{}, func(i int) bool {
		status, err := ls.get(reqs[i].path)
		return err == nil && expected(reqs[i].route, status)
	})
	hits0, miss0 := counterValue("api_cache_hits_total"), counterValue("api_cache_misses_total")
	inval0 := counterValue("api_cache_invalidated_total")

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ph := startPhase()
	coordErr := make(chan error, 1)
	go func() { coordErr <- c.Run(runCtx) }()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		gen.Run(ph.start, len(reqs))
	}()

	type mark struct {
		end     time.Time
		applied int
	}
	var marks []mark // the end of each Poll and how many partitions were applied by then
	// This is follow.Follower.Run's loop with each Poll timed: on every
	// tick, poll until a batch comes back short of MaxBatch.
	tick := time.NewTicker(e.spec.Poll)
	defer tick.Stop()
	var loopErr error
	for drained := true; loopErr == nil; {
		if drained {
			select {
			case <-tick.C:
			case <-ctx.Done():
				loopErr = ctx.Err()
				continue
			}
		}
		t := time.Now()
		n, err := f.Poll(runCtx)
		end := time.Now()
		res.PollS.Add(end.Sub(t).Seconds())
		if err != nil {
			loopErr = fmt.Errorf("follower poll: %w", err)
			continue
		}
		drained = n < followBatch
		applied := f.Status().Applied
		marks = append(marks, mark{end, applied})
		if applied >= len(e.parts) {
			break
		}
		if end.Sub(ph.start) > liveDeadline {
			loopErr = fmt.Errorf("live phase did not converge within %s (%d/%d applied)", liveDeadline, applied, len(e.parts))
		}
	}
	res.Wall, res.CPU = ph.stop()
	gen.Stop(ph.start.Add(res.Wall))
	if loopErr != nil {
		cancel()
	}
	<-genDone
	if err := <-coordErr; err != nil && loopErr == nil {
		loopErr = fmt.Errorf("coordinator: %w", err)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	// One worker commits in the order its work returns, and each Poll
	// applies every commit it discovers, so the first n commits are the
	// ones queryable after a Poll that brought the count to n. A return
	// whose lease was fenced off never commits: the partition's last
	// return is the committed one.
	last := make(map[coord.Partition]int)
	for i, r := range returned {
		last[r.p] = i
	}
	var committed []time.Time
	for i, r := range returned {
		if last[r.p] == i {
			committed = append(committed, r.t)
		}
	}
	res.Retried = len(returned) - len(committed)
	k := 0
	for _, m := range marks {
		for ; k < m.applied && k < len(committed); k++ {
			res.Fresh.AddDur(m.end.Sub(committed[k]))
		}
	}
	res.Query, res.Late = gen.Latency, gen.Late
	res.Sent, res.Failed = gen.Sent, gen.Failed
	res.Applied = f.Status().Applied
	res.Coord = c.Stats()
	res.Publish = ts.publish.Busy
	if timer != nil {
		res.Handler = timer.us
	}
	res.CacheHits = counterValue("api_cache_hits_total") - hits0
	res.CacheMisses = counterValue("api_cache_misses_total") - miss0
	res.CacheInval = counterValue("api_cache_invalidated_total") - inval0
	res.Answers = e.answers(ls.srv.Handler())
	return res, nil
}

// reference rebuilds an index with api.NewIndexReader over the boot
// snapshot plus a pass's committed spools and digests its answers.
func (e *serveEnv) reference(coordDir string) (string, error) {
	c, err := coord.New(coord.Config{Dir: coordDir, Work: func(context.Context, coord.Partition, int) (*store.Store, error) {
		return nil, errors.New("reference: nothing left to measure")
	}}, nil)
	if err != nil {
		return "", err
	}
	defer c.Close()
	if st := c.Stats(); st.Committed != len(e.parts) {
		return "", fmt.Errorf("reference: %d of %d partitions committed", st.Committed, len(e.parts))
	}
	live, damaged, err := c.Assemble()
	if err != nil {
		return "", err
	}
	if len(damaged) > 0 {
		return "", fmt.Errorf("reference: %d damaged spools", len(damaged))
	}
	all, err := store.Load(e.spec.fixture())
	if err != nil {
		return "", err
	}
	all.Absorb(live)
	path := filepath.Join(e.spec.Dir, "reference.dpsa")
	if err := all.Save(path); err != nil {
		return "", err
	}
	defer os.Remove(path)
	rd, err := store.Open(path)
	if err != nil {
		return "", err
	}
	defer rd.Close()
	refs, err := core.GroundTruth()
	if err != nil {
		return "", err
	}
	idx, err := api.NewIndexReader(rd, refs)
	if err != nil {
		return "", err
	}
	srv := api.NewServer(idx, api.Config{CacheEntries: -1, ObservatoryOff: true})
	return e.answers(srv.Handler()), nil
}
