package obsserver_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"redoop/internal/account"
	"redoop/internal/cluster"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/health"
	"redoop/internal/iocost"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/obsserver"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

const (
	testWin   = 30 * simtime.Second
	testSlide = 10 * simtime.Second
)

func newRig(workers int, ob *obs.Observer) *mapreduce.Engine {
	cost := iocost.Default()
	cost.TaskOverhead = 200 * time.Microsecond
	cl := cluster.MustNew(cluster.Config{Workers: workers, MapSlots: 2, ReduceSlots: 2})
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	d := dfs.MustNew(dfs.Config{BlockSize: 32 << 10, Replication: 2, Nodes: ids, Seed: 7})
	mr := mapreduce.MustNew(cl, d, cost)
	mr.Obs = ob
	return mr
}

func sumReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	emit(key, []byte(strconv.Itoa(total)))
}

func countQuery(name string) *core.Query {
	return &core.Query{
		Name: name,
		Sources: []core.Source{{
			Name: "S1",
			Spec: window.NewTimeSpec(testWin, testSlide),
		}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sumReduce,
		Combine:     sumReduce,
		Merge:       sumReduce,
		NumReducers: 2,
	}
}

func genWords(seed int64, slideIdx, n int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(testSlide)
	out := make([]records.Record, n)
	for i := range out {
		ts := base + rng.Int63n(int64(testSlide))
		out[i] = records.Record{Ts: ts, Data: []byte(fmt.Sprintf("w%02d", rng.Intn(10)))}
	}
	return out
}

// runRecurrences drives a fresh engine through n recurrences and
// returns it with its observer and server.
func runRecurrences(t *testing.T, n int) (*obsserver.Server, *obs.Observer, *core.Engine) {
	t.Helper()
	ob := obs.New()
	mr := newRig(4, ob)
	eng, err := core.NewEngine(core.Config{MR: mr, Query: countQuery("q1")})
	if err != nil {
		t.Fatal(err)
	}
	slidesPerWin := int(testWin / testSlide)
	fed := 0
	for r := 0; r < n; r++ {
		for ; fed < slidesPerWin+r; fed++ {
			if err := eng.Ingest(0, genWords(11, fed, 200)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	srv := obsserver.New(ob)
	srv.Attach(eng)
	return srv, ob, eng
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := runRecurrences(t, 2)
	rec := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"redoop_recurrences_total", "redoop_cache_lookups_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestEventsEndpointFilters(t *testing.T) {
	ob := obs.New()
	ob.Emit(1, eventlog.CacheHit, "q1", eventlog.CacheData{PID: "a", Node: 0})
	ob.Emit(2, eventlog.CacheMiss, "q1", eventlog.CacheData{PID: "b", Node: -1})
	ob.Emit(3, eventlog.CacheHit, "q2", eventlog.CacheData{PID: "c", Node: 1})
	srv := obsserver.New(ob)
	h := srv.Handler()

	var page struct {
		Seq     uint64           `json:"seq"`
		Dropped uint64           `json:"dropped"`
		Events  []eventlog.Event `json:"events"`
	}
	rec := get(t, h, "/debug/events")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Seq != 3 || len(page.Events) != 3 {
		t.Fatalf("unfiltered: seq=%d events=%d, want 3/3", page.Seq, len(page.Events))
	}

	rec = get(t, h, "/debug/events?type=cache.hit&query=q1")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Seq != 1 {
		t.Fatalf("filtered: %+v, want just seq 1", page.Events)
	}

	rec = get(t, h, "/debug/events?since=2")
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].Seq != 3 {
		t.Fatalf("since: %+v, want just seq 3", page.Events)
	}

	if rec := get(t, h, "/debug/events?since=zap"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad since: status %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/debug/events?limit=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", rec.Code)
	}
}

func TestCacheEndpoint(t *testing.T) {
	srv, _, _ := runRecurrences(t, 3)
	rec := get(t, srv.Handler(), "/debug/cache")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Controllers []core.ControllerDump `json:"controllers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Controllers) != 1 {
		t.Fatalf("controllers = %d, want 1", len(body.Controllers))
	}
	c := body.Controllers[0]
	if len(c.Queries) != 1 || c.Queries[0] != "q1" {
		t.Errorf("queries = %v", c.Queries)
	}
	if len(c.Signatures) == 0 {
		t.Fatal("no live signatures after 3 recurrences")
	}
	for _, s := range c.Signatures {
		if s.PID == "" || s.Type == "" || s.Ready == "" {
			t.Errorf("incomplete signature %+v", s)
		}
		if len(s.DoneQueryMask) != 1 {
			t.Errorf("doneQueryMask size %d, want 1", len(s.DoneQueryMask))
		}
	}
	if len(c.Registries) == 0 {
		t.Fatal("no node registries")
	}
}

func TestPanesEndpoint(t *testing.T) {
	srv, _, eng := runRecurrences(t, 3)
	rec := get(t, srv.Handler(), "/debug/panes")
	var body struct {
		Engines []core.EngineDump `json:"engines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Engines) != 1 {
		t.Fatalf("engines = %d, want 1", len(body.Engines))
	}
	d := body.Engines[0]
	if d.Query != "q1" || d.NextRecurrence != eng.NextRecurrence() {
		t.Errorf("dump header %+v", d)
	}
	if len(d.Sources) != 1 || d.Sources[0].Name != "S1" {
		t.Fatalf("sources = %+v", d.Sources)
	}
	if len(d.Sources[0].Panes) == 0 {
		t.Error("no flushed panes listed")
	}
	for _, p := range d.Sources[0].Panes {
		for _, seg := range p.Segments {
			if seg.Path == "" {
				t.Errorf("pane %d has a segment without a path", p.Pane)
			}
		}
	}
	if d.Matrix == "" {
		t.Error("empty matrix rendering")
	}
}

// TestStreamSSE verifies the /debug/stream framing end to end: backlog
// replay, then live delivery of a later event, with id/event/data
// lines per frame.
func TestStreamSSE(t *testing.T) {
	ob := obs.New()
	ob.Emit(1, eventlog.RecurrenceStart, "q1", eventlog.RecurrenceStartData{Recurrence: 0})
	ob.Emit(2, eventlog.RecurrenceFinish, "q1", eventlog.RecurrenceFinishData{Recurrence: 0, ResponseNS: 42})
	srv := obsserver.New(ob)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	rd := bufio.NewReader(resp.Body)
	frame := func() (id, event, data string) {
		t.Helper()
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				return id, event, data
			}
		}
	}

	id, event, data := frame()
	if id != "1" || event != "recurrence.start" {
		t.Fatalf("frame 1 = id %q event %q", id, event)
	}
	var ev eventlog.Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("frame 1 data %q: %v", data, err)
	}
	if ev.Seq != 1 || ev.Query != "q1" {
		t.Fatalf("frame 1 decoded %+v", ev)
	}
	if id, event, _ = frame(); id != "2" || event != "recurrence.finish" {
		t.Fatalf("frame 2 = id %q event %q", id, event)
	}

	// An event emitted after the client attached must arrive live.
	ob.Emit(3, eventlog.NodeFailure, "q1", eventlog.NodeFailureData{Node: 2})
	if id, event, _ = frame(); id != "3" || event != "node.failure" {
		t.Fatalf("live frame = id %q event %q", id, event)
	}
}

// TestStreamSince verifies ?since= skips the already-seen backlog.
func TestStreamSince(t *testing.T) {
	ob := obs.New()
	for i := 0; i < 5; i++ {
		ob.Emit(simtime.Time(i), eventlog.CacheHit, "q1", nil)
	}
	srv := obsserver.New(ob)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/stream?since=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(line); got != "id: 4" {
		t.Fatalf("first line = %q, want id: 4", got)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	srv := obsserver.New(obs.New())
	h := srv.Handler()
	if rec := get(t, h, "/"); rec.Code != http.StatusOK {
		t.Errorf("index status = %d", rec.Code)
	}
	if rec := get(t, h, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", rec.Code)
	}
}

// TestServeDuringRun attaches the server before any recurrence runs and
// polls /debug/events while recurrences execute on another goroutine —
// the mid-run usability the flight recorder exists for (run with -race
// to exercise the locking).
func TestServeDuringRun(t *testing.T) {
	ob := obs.New()
	mr := newRig(4, ob)
	eng, err := core.NewEngine(core.Config{MR: mr, Query: countQuery("q1")})
	if err != nil {
		t.Fatal(err)
	}
	srv := obsserver.New(ob)
	srv.Attach(eng)
	h := srv.Handler()

	done := make(chan error, 1)
	go func() {
		slidesPerWin := int(testWin / testSlide)
		fed := 0
		for r := 0; r < 4; r++ {
			for ; fed < slidesPerWin+r; fed++ {
				if err := eng.Ingest(0, genWords(23, fed, 200)); err != nil {
					done <- err
					return
				}
			}
			if _, err := eng.RunNext(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// One final pass over every endpoint after the run.
			for _, p := range []string{"/metrics", "/debug/events", "/debug/cache", "/debug/panes"} {
				if rec := get(t, h, p); rec.Code != http.StatusOK {
					t.Errorf("%s status = %d", p, rec.Code)
				}
			}
			return
		default:
		}
		for _, p := range []string{"/metrics", "/debug/events", "/debug/cache", "/debug/panes"} {
			if rec := get(t, h, p); rec.Code != http.StatusOK {
				t.Fatalf("%s status = %d mid-run", p, rec.Code)
			}
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv, _, eng := runRecurrences(t, 4)
	rec := get(t, srv.Handler(), "/debug/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Status  string               `json:"status"`
		Queries []health.QueryStatus `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Queries) != 1 {
		t.Fatalf("queries = %+v, want exactly one", doc.Queries)
	}
	q := doc.Queries[0]
	if q.Query != "q1" {
		t.Errorf("query = %q, want q1", q.Query)
	}
	if q.Recurrences != 4 {
		t.Errorf("recurrences = %d, want 4", q.Recurrences)
	}
	if q.DeadlineNS != int64(testSlide) {
		t.Errorf("deadline = %d, want %d", q.DeadlineNS, int64(testSlide))
	}
	if doc.Status != string(health.StatusOK) {
		t.Errorf("overall status = %q, want %q", doc.Status, health.StatusOK)
	}
	_ = eng
}

// TestHealthEndpointSharedMonitor checks two engines sharing one
// monitor are reported once each, not duplicated per engine.
func TestHealthEndpointSharedMonitor(t *testing.T) {
	ob := obs.New()
	mon := health.NewMonitor(health.DefaultConfig())
	mon.SetObserver(ob)
	e1, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: countQuery("qa"), Health: mon})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: countQuery("qb"), Health: mon})
	if err != nil {
		t.Fatal(err)
	}
	srv := obsserver.New(ob)
	srv.Attach(e1, e2)
	rec := get(t, srv.Handler(), "/debug/health")
	var doc struct {
		Queries []health.QueryStatus `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Queries) != 2 {
		t.Fatalf("queries = %+v, want qa and qb once each", doc.Queries)
	}
}

// TestStreamKeepAlive verifies idle /debug/stream connections carry
// periodic SSE comment frames between events.
func TestStreamKeepAlive(t *testing.T) {
	ob := obs.New()
	ob.Emit(1, eventlog.RecurrenceStart, "q1", nil)
	srv := obsserver.New(ob)
	srv.KeepAlive = 20 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	sawEvent, sawKeepalive := false, false
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	for !sawKeepalive {
		select {
		case <-deadline:
			t.Fatalf("no keepalive frame within 5s (event seen: %v)", sawEvent)
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before keepalive")
			}
			switch {
			case strings.HasPrefix(line, "id: 1"):
				sawEvent = true
			case strings.HasPrefix(line, ": keepalive"):
				sawKeepalive = true
			}
		}
	}
	if !sawEvent {
		t.Error("backlog event never arrived before keepalive")
	}

	// Events emitted after keepalives still flow.
	ob.Emit(2, eventlog.RecurrenceFinish, "q1", nil)
	deadline = time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("live event after keepalive never arrived")
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before live event")
			}
			if strings.HasPrefix(line, "id: 2") {
				return
			}
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	srv, _, _ := runRecurrences(t, 3)
	rec := get(t, srv.Handler(), "/debug/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Queries map[string]struct {
			CritPathNS  int64 `json:"critPathNS"`
			Recurrences []struct {
				Index  int   `json:"index"`
				WallNS int64 `json:"wallNS"`
			} `json:"recurrences"`
		} `json:"queries"`
		CritPathTotalNS int64 `json:"critPathTotalNS"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	q, ok := doc.Queries["q1"]
	if !ok {
		t.Fatalf("no q1 in profile: %s", rec.Body.String())
	}
	if len(q.Recurrences) != 3 || q.CritPathNS <= 0 {
		t.Fatalf("q1 profile = %+v, want 3 recurrences with positive critical path", q)
	}
	// Cache savings are served by /debug/costs, not re-derived here.
	for _, gone := range []string{`"ledger"`, `"timeSavedNS"`} {
		if strings.Contains(rec.Body.String(), gone) {
			t.Fatalf("profile still carries %s: %s", gone, rec.Body.String())
		}
	}
	if doc.CritPathTotalNS != q.CritPathNS {
		t.Fatalf("total %d != q1 %d", doc.CritPathTotalNS, q.CritPathNS)
	}

	// ?query= narrows; unknown names 404.
	if rec := get(t, srv.Handler(), "/debug/profile?query=q1"); rec.Code != http.StatusOK {
		t.Fatalf("?query=q1 status %d", rec.Code)
	}
	if rec := get(t, srv.Handler(), "/debug/profile?query=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("?query=nope status %d, want 404", rec.Code)
	}
}

func TestCritPathEndpoint(t *testing.T) {
	srv, _, _ := runRecurrences(t, 2)
	rec := get(t, srv.Handler(), "/debug/critpath?query=q1&recurrence=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Recurrences []struct {
			Query    string `json:"query"`
			Index    int    `json:"index"`
			WallNS   int64  `json:"wallNS"`
			TaskNS   int64  `json:"taskNS"`
			WaitNS   int64  `json:"waitNS"`
			GapNS    int64  `json:"gapNS"`
			Segments []struct {
				Kind  string       `json:"kind"`
				Start simtime.Time `json:"start"`
				End   simtime.Time `json:"end"`
			} `json:"segments"`
		} `json:"recurrences"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(doc.Recurrences) != 1 {
		t.Fatalf("got %d recurrences, want exactly the filtered one", len(doc.Recurrences))
	}
	e := doc.Recurrences[0]
	if e.Query != "q1" || e.Index != 1 {
		t.Fatalf("entry = %s/%d, want q1/1", e.Query, e.Index)
	}
	// The tiling invariant, observed through the HTTP surface.
	var sum int64
	for _, s := range e.Segments {
		sum += int64(s.End.Sub(s.Start))
	}
	if sum != e.WallNS || e.TaskNS+e.WaitNS+e.GapNS != e.WallNS {
		t.Fatalf("segments sum to %d, wall is %d", sum, e.WallNS)
	}

	if rec := get(t, srv.Handler(), "/debug/critpath?recurrence=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad recurrence filter: status %d, want 400", rec.Code)
	}
}

// TestCostsEndpoint drives two engines sharing one cost ledger
// (different tenants) and checks /debug/costs reports each query once
// with nonzero compute, plus per-tenant rollups.
func TestCostsEndpoint(t *testing.T) {
	ob := obs.New()
	ledger := account.New()
	q1 := countQuery("qa")
	q1.TenantID = "tenant-a"
	q2 := countQuery("qb")
	q2.TenantID = "tenant-b"
	e1, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: q1, Account: ledger})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: q2, Account: ledger})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*core.Engine{e1, e2} {
		for fed := 0; fed < int(testWin/testSlide); fed++ {
			if err := eng.Ingest(0, genWords(11, fed, 200)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	srv := obsserver.New(ob)
	srv.Attach(e1, e2)
	rec := get(t, srv.Handler(), "/debug/costs")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Queries []account.QueryCosts  `json:"queries"`
		Tenants []account.TenantCosts `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Queries) != 2 {
		t.Fatalf("queries = %+v, want qa and qb once each (shared ledger deduplicated)", doc.Queries)
	}
	for _, q := range doc.Queries {
		if q.TotalComputeNS <= 0 {
			t.Errorf("query %s metered no compute", q.Query)
		}
	}
	if len(doc.Tenants) != 2 {
		t.Fatalf("tenants = %+v, want tenant-a and tenant-b", doc.Tenants)
	}
	for _, tc := range doc.Tenants {
		if tc.Queries != 1 || tc.TotalComputeNS <= 0 {
			t.Errorf("tenant rollup %+v wrong", tc)
		}
	}
}

// TestDebugIndexPage checks /debug/ lists every mounted endpoint as an
// HTML directory and unmatched /debug/* paths still 404.
func TestDebugIndexPage(t *testing.T) {
	srv := obsserver.New(obs.New())
	h := srv.Handler()
	rec := get(t, h, "/debug/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q, want text/html", ct)
	}
	body := rec.Body.String()
	for _, path := range []string{
		"/metrics", "/debug/events", "/debug/cache", "/debug/panes",
		"/debug/health", "/debug/profile", "/debug/critpath",
		"/debug/costs", "/debug/stream",
	} {
		if !strings.Contains(body, fmt.Sprintf("href=%q", path)) {
			t.Errorf("/debug/ index is missing a link to %s", path)
		}
	}
	if rec := get(t, h, "/debug/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown debug path status = %d, want 404", rec.Code)
	}
}

// TestEndpointCatalogueMatchesMux is the drift guard: every endpoint
// the root catalogue documents must actually be mounted (non-404), and
// the catalogue must carry every route the table mounts — both sides
// now derive from one registry, so this fails the moment someone adds
// a route or a doc line anywhere else.
func TestEndpointCatalogueMatchesMux(t *testing.T) {
	srv := obsserver.New(obs.New())
	h := srv.Handler()

	var docs map[string]string
	rec := get(t, h, "/")
	if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
		t.Fatalf("bad catalogue JSON: %v", err)
	}
	if len(docs) == 0 {
		t.Fatal("empty endpoint catalogue")
	}
	// Probe with a pre-cancelled request context so /debug/stream (an
	// SSE endpoint that otherwise serves forever) returns after its
	// backlog replay.
	probe := func(path string) int {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for path, doc := range docs {
		if doc == "" {
			t.Errorf("catalogued endpoint %s has no description", path)
		}
		if code := probe(path); code == http.StatusNotFound {
			t.Errorf("catalogued endpoint %s is not mounted (404)", path)
		}
	}
	// Spot-check the routes the catalogue must cover, including the
	// provenance endpoint this PR adds.
	for _, path := range []string{
		"/metrics", "/debug/events", "/debug/cache", "/debug/panes",
		"/debug/health", "/debug/profile", "/debug/critpath",
		"/debug/costs", "/debug/lineage", "/debug/stream",
	} {
		if _, ok := docs[path]; !ok {
			t.Errorf("catalogue is missing %s", path)
		}
	}
}

// TestLineageEndpoint drives an engine with a provenance store attached
// and exercises /debug/lineage: the JSON envelope with stats, plans and
// the derivation DAG; query/pane/fingerprint filters; single-node
// traces via ?id=; DOT rendering; and the error paths.
func TestLineageEndpoint(t *testing.T) {
	ob := obs.New()
	lin := lineage.New(0)
	mr := newRig(4, ob)
	eng, err := core.NewEngine(core.Config{MR: mr, Query: countQuery("q1"), Lineage: lin})
	if err != nil {
		t.Fatal(err)
	}
	slidesPerWin := int(testWin / testSlide)
	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < slidesPerWin+r; fed++ {
			if err := eng.Ingest(0, genWords(11, fed, 200)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	srv := obsserver.New(ob)
	srv.Attach(eng)
	h := srv.Handler()

	type storeDoc struct {
		Stats     lineage.Stats     `json:"stats"`
		Watermark uint64            `json:"watermark"`
		Plans     map[string]string `json:"plans"`
		Graph     lineage.Trace     `json:"graph"`
	}
	var doc struct {
		Stores []storeDoc `json:"stores"`
	}
	rec := get(t, h, "/debug/lineage")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(doc.Stores) != 1 {
		t.Fatalf("stores = %d, want 1", len(doc.Stores))
	}
	st := doc.Stores[0]
	if st.Stats.Nodes == 0 || len(st.Graph.Nodes) == 0 {
		t.Fatalf("empty provenance document: stats %+v, %d graph nodes", st.Stats, len(st.Graph.Nodes))
	}
	if st.Stats.DistinctFingerprints != 1 || len(st.Plans) != 1 {
		t.Fatalf("fingerprints = %d, plans = %d, want one canonical plan", st.Stats.DistinctFingerprints, len(st.Plans))
	}
	var fp string
	for k := range st.Plans {
		fp = k
	}

	// The fingerprint filter keeps every derivation (one plan), a bogus
	// one keeps none; batch nodes ride along only with included panes.
	var filtered struct {
		Stores []storeDoc `json:"stores"`
	}
	rec = get(t, h, "/debug/lineage?query=q1&fingerprint="+fp)
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if got := len(filtered.Stores[0].Graph.Nodes); got != len(st.Graph.Nodes) {
		t.Errorf("matching fingerprint filter dropped nodes: %d != %d", got, len(st.Graph.Nodes))
	}
	rec = get(t, h, "/debug/lineage?query=nope")
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if got := len(filtered.Stores[0].Graph.Nodes); got != 0 {
		t.Errorf("query=nope still returned %d nodes", got)
	}

	// ?id= traces one node; pick any derivation from the full graph.
	var id string
	for _, n := range st.Graph.Nodes {
		if n.Kind != "batch" {
			id = n.ID
			break
		}
	}
	rec = get(t, h, "/debug/lineage?id="+url.QueryEscape(id))
	if rec.Code != http.StatusOK {
		t.Fatalf("?id= status = %d", rec.Code)
	}
	var tr lineage.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Root != id || len(tr.Nodes) == 0 {
		t.Fatalf("trace root = %q with %d nodes, want %q", tr.Root, len(tr.Nodes), id)
	}

	// DOT rendering, both whole-graph and single-trace.
	rec = get(t, h, "/debug/lineage?format=dot")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "digraph lineage {") {
		t.Fatalf("DOT render: status %d body %.40q", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/debug/lineage?format=dot&id="+url.QueryEscape(id))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "penwidth=2") {
		t.Fatalf("DOT trace: status %d, root should be bold", rec.Code)
	}

	// Error paths.
	if rec := get(t, h, "/debug/lineage?id=no/such/node"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/debug/lineage?pane=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad pane status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/debug/lineage?format=xml"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad format status = %d, want 400", rec.Code)
	}
}

// TestReuseEndpoint drives two engines that share a cross-query reuse
// index and checks /debug/reuse exposes the deduplicated index with its
// counters, canonical entries, and per-engine operator fingerprints.
func TestReuseEndpoint(t *testing.T) {
	ob := obs.New()
	idx := reuse.NewIndex(1 << 20)
	qa, qb := countQuery("qa"), countQuery("qb")
	qa.Sources[0].CacheKey = "words"
	qb.Sources[0].CacheKey = "words"
	// countQuery inlines at each call site, splitting the anonymous Map
	// closure's symbol; share the func value so the fingerprints agree.
	qb.Maps = qa.Maps
	e1, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: qa, Reuse: idx})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.NewEngine(core.Config{MR: newRig(2, ob), Query: qb, Reuse: idx})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*core.Engine{e1, e2} {
		for fed := 0; fed < int(testWin/testSlide); fed++ {
			if err := eng.Ingest(0, genWords(7, fed, 120)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	srv := obsserver.New(ob)
	srv.Attach(e1, e2)
	h := srv.Handler()

	rec := get(t, h, "/debug/reuse")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc struct {
		Indexes []struct {
			Stats   reuse.Stats   `json:"stats"`
			Entries []reuse.Entry `json:"entries"`
		} `json:"indexes"`
		Engines []struct {
			Query string `json:"query"`
			OpFP  string `json:"opFingerprint"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Indexes) != 1 {
		t.Fatalf("indexes = %d, want the shared index deduplicated to 1", len(doc.Indexes))
	}
	if doc.Indexes[0].Stats.Published == 0 || len(doc.Indexes[0].Entries) == 0 {
		t.Fatalf("shared index saw no published panes: %+v", doc.Indexes[0].Stats)
	}
	if len(doc.Engines) != 2 {
		t.Fatalf("engines = %+v, want qa and qb", doc.Engines)
	}
	if doc.Engines[0].OpFP == "" || doc.Engines[0].OpFP != doc.Engines[1].OpFP {
		t.Errorf("identical queries disagree on op fingerprint: %+v", doc.Engines)
	}

	// ?query= keeps only the named producer's entries.
	rec = get(t, h, "/debug/reuse?query=qa")
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, en := range doc.Indexes[0].Entries {
		if en.Query != "qa" {
			t.Fatalf("query=qa filter leaked entry from %q", en.Query)
		}
	}
	rec = get(t, h, "/debug/reuse?query=nope")
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Indexes[0].Entries); got != 0 {
		t.Errorf("query=nope still returned %d entries", got)
	}
}
