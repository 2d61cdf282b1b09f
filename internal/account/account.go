// Package account is the per-query (and per-tenant) resource ledger:
// every unit of simulated work the runtime performs — slot compute,
// shuffle transfer, DFS traffic, cache residency — is attributed to
// the query that caused it, in virtual time.
//
// The ledger exists because Redoop's window-aware caches (paper §3–4)
// trade resident bytes for recompute savings, and any admission or
// eviction policy needs to know the exchange rate *per consumer*: how
// many recompute nanoseconds does each resident byte·second of query
// q's caches buy back? The ledger meters four things:
//
//   - compute nanoseconds per phase (map, combine, shuffle, sort,
//     reduce, cache-load), fed by hooks in internal/mapreduce and
//     internal/core at the points where slot time is charged;
//   - cache occupancy as byte·seconds plus peak resident bytes, fed
//     by the engine's register/expire/re-register transitions;
//   - IO bytes (DFS read/write/replication, shuffle), fed by
//     internal/dfs and the shuffle accounting;
//   - recompute nanoseconds saved by cache hits, net of the cache
//     load cost actually paid.
//
// Saving rule: a hit on a resident cache credits the consumer with the
// recompute cost stored at registration (actual task costs on cold
// builds, iocost-modeled costs on rebuilds); the first load of that
// cache after the hit is netted out of the credit. Later loads of the
// same cache in the recurrence are not netted — a rebuilt cache would
// pay them too. A hit on a key with no open residency credits nothing.
// This ledger is the only source of the time cache reuse saved.
//
// Determinism: every duration- or float-valued method is called only
// from the engines' serial commit paths, so attribution is
// byte-identical across -workers regimes. The only methods reachable
// from parallel code are the integer AddIO adds (DFS reads during
// split decode), which are commutative under the ledger mutex.
//
// Conservation: slot compute attributed here is exactly the virtual
// busy time the engines charge to cluster nodes via AddLoad, so
// SlotComputeNS(all queries) ≤ Σ Node.Load() always — the oracle
// asserts it after every recurrence, and CheckConservation packages
// the same test for CLIs. It also fails when any netted load exceeded
// the recompute cost its hit credited: a reuse must never cost more
// than the rebuild it avoided (the Eq. 4 placement and the iocost
// model's Sort+DiskWrite floor guarantee this).
package account

import (
	"fmt"
	"sort"
	"sync"

	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// Phase labels one compute-phase bucket. The set is closed and small,
// keeping redoop_query_* metric cardinality bounded by
// #queries × #phases.
type Phase string

const (
	PhaseMap       Phase = "map"
	PhaseCombine   Phase = "combine"
	PhaseShuffle   Phase = "shuffle"
	PhaseSort      Phase = "sort"
	PhaseReduce    Phase = "reduce"
	PhaseCacheLoad Phase = "cache-load"
)

// Phases lists every phase in presentation order.
var Phases = []Phase{PhaseMap, PhaseCombine, PhaseShuffle, PhaseSort, PhaseReduce, PhaseCacheLoad}

// slotPhase reports whether a phase occupies a map/reduce slot (and
// therefore contributes to Node.AddLoad busy time). Shuffle is modeled
// as elapsed transfer time between map end and reduce start — it never
// holds a slot — so it is excluded from the conservation sum.
func slotPhase(p Phase) bool { return p != PhaseShuffle }

// IOKind labels one byte-counter bucket.
type IOKind string

const (
	IODFSRead  IOKind = "dfs-read"
	IODFSWrite IOKind = "dfs-write"
	IODFSRepl  IOKind = "dfs-repl"
	IOShuffle  IOKind = "shuffle"
)

// IOKinds lists every kind in presentation order.
var IOKinds = []IOKind{IODFSRead, IODFSWrite, IODFSRepl, IOShuffle}

// residency is one open cache interval: pid/typ resident on behalf of
// owner since `since`. recompute is the modeled cost to rebuild it,
// credited to a consumer on hit.
type residency struct {
	owner     string
	pid       string
	typ       int
	bytes     int64
	since     simtime.Time
	recompute simtime.Duration
	// hits counts cache hits served by this residency interval — an
	// access-frequency feature for cost-based replacement; it resets
	// when the interval closes (a rebuilt cache re-earns its keep).
	hits int
}

// ResidencyFeatures is the per-entry feature vector cost-based cache
// replacement ranks on: size, modeled recompute cost, and the access
// frequency of the current residency interval.
type ResidencyFeatures struct {
	Query       string
	Bytes       int64
	RecomputeNS int64
	Hits        int
	Since       simtime.Time
}

// Residency is the exported view of one still-open cache interval.
type Residency struct {
	Query string
	PID   string
	Type  int
	Bytes int64
	Since simtime.Time
}

// queryAcct is one query's running totals.
type queryAcct struct {
	name   string
	tenant string

	compute map[Phase]simtime.Duration
	io      map[IOKind]int64

	byteSeconds  float64 // closed residencies only; open ones accrue on read
	curResident  int64
	peakResident int64

	saved simtime.Duration // recompute saved by hits, net of load paid
	// crossSaved is the subset of saved credited by cross-query reuse
	// hits (another query's cache satisfying this query's pane build).
	crossSaved simtime.Duration

	hits       int
	crossHits  int
	registered int
	expired    int
	// overLoads counts netted loads that exceeded the recompute their
	// hit credited; CheckConservation fails while it is non-zero.
	overLoads int
}

// QueryCosts is one query's ledger snapshot.
type QueryCosts struct {
	Query  string `json:"query"`
	Tenant string `json:"tenant,omitempty"`

	// ComputeNS maps phase name to attributed virtual nanoseconds.
	ComputeNS map[string]int64 `json:"computeNS"`
	// TotalComputeNS sums every phase including shuffle.
	TotalComputeNS int64 `json:"totalComputeNS"`
	// SlotComputeNS sums only slot-occupying phases (excludes shuffle)
	// — the conservation numerator.
	SlotComputeNS int64 `json:"slotComputeNS"`

	// IOBytes maps IO kind to attributed bytes.
	IOBytes map[string]int64 `json:"ioBytes"`

	// CacheByteSeconds integrates resident cache bytes over virtual
	// time, open residencies accrued to the ledger watermark.
	CacheByteSeconds  float64 `json:"cacheByteSeconds"`
	PeakResidentBytes int64   `json:"peakResidentBytes"`
	CurResidentBytes  int64   `json:"curResidentBytes"`

	// SavedNS is recompute time cache hits avoided, net of the cache
	// loads actually paid.
	SavedNS int64 `json:"savedNS"`
	// CrossSavedNS is the subset of SavedNS credited by cross-query
	// reuse hits (gross: the net-of-load adjustment lands on SavedNS).
	CrossSavedNS int64 `json:"crossSavedNS,omitempty"`

	CacheHits int `json:"cacheHits"`
	// CrossQueryHits counts hits satisfied from another query's cache
	// via the reuse index; they also count in CacheHits.
	CrossQueryHits  int `json:"crossQueryHits,omitempty"`
	CacheRegistered int `json:"cacheRegistered"`
	CacheExpired    int `json:"cacheExpired"`
	OpenResidencies int `json:"openResidencies"`

	// CacheROI is SavedNS per resident byte·second — the ranking
	// feature a cost-based eviction policy would use. 0 when the query
	// never held cache bytes.
	CacheROI float64 `json:"cacheROI"`
}

// Ledger is the process-wide cost ledger. All methods are safe for
// concurrent use and nil-safe, so call sites hook in unconditionally.
type Ledger struct {
	mu      sync.Mutex
	obs     *obs.Observer
	queries map[string]*queryAcct
	order   []string
	open    map[string]*residency // key: pid|typ
	// pending maps a hit cache's key to the hit whose saving must be
	// netted by that cache's next load cost. Armed by CacheHit,
	// consumed by the first subsequent CacheLoaded for the same key;
	// loads of caches never hit leave savings untouched.
	pending map[string]pendingHit
	// watermark is the latest virtual instant the ledger has been
	// advanced to; open residencies accrue byte·seconds up to it when
	// read.
	watermark simtime.Time
}

// pendingHit is one armed net-of-load adjustment: the consumer query
// credited by the hit and the recompute cost it was credited.
type pendingHit struct {
	query     string
	recompute simtime.Duration
}

// New builds an empty ledger.
func New() *Ledger {
	return &Ledger{
		queries: map[string]*queryAcct{},
		open:    map[string]*residency{},
		pending: map[string]pendingHit{},
	}
}

// SetObserver attaches a metrics sink; nil-safe on both sides.
func (l *Ledger) SetObserver(o *obs.Observer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = o
}

// Observer returns the attached metrics sink (nil-safe) so sharing
// call sites can fill in a missing observer without detaching an
// existing one.
func (l *Ledger) Observer() *obs.Observer {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.obs
}

func resKey(pid string, typ int) string { return fmt.Sprintf("%s|%d", pid, typ) }

// Register adds a query to the ledger and returns the account name to
// attribute its costs under — the given name, or a "#2"-style suffixed
// variant when the name is already taken (mirrors health.Monitor). On
// a nil ledger the name passes through unchanged.
func (l *Ledger) Register(query, tenant string) string {
	if l == nil {
		return query
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	name := query
	for i := 2; ; i++ {
		if _, taken := l.queries[name]; !taken {
			break
		}
		name = fmt.Sprintf("%s#%d", query, i)
	}
	l.queries[name] = &queryAcct{
		name:    name,
		tenant:  tenant,
		compute: map[Phase]simtime.Duration{},
		io:      map[IOKind]int64{},
	}
	l.order = append(l.order, name)
	return name
}

// acct resolves a query's account, lazily registering unknown names
// (tenant-less) so partial wiring never panics or drops costs.
func (l *Ledger) acct(query string) *queryAcct {
	a, ok := l.queries[query]
	if !ok {
		a = &queryAcct{
			name:    query,
			compute: map[Phase]simtime.Duration{},
			io:      map[IOKind]int64{},
		}
		l.queries[query] = a
		l.order = append(l.order, query)
	}
	return a
}

// AddCompute attributes d of phase-p work to query. Callers on slot
// phases must charge exactly what they AddLoad to the node, so the
// conservation invariant stays an equality for fully-hooked engines.
func (l *Ledger) AddCompute(query string, p Phase, d simtime.Duration) {
	if l == nil || d == 0 || query == "" {
		return
	}
	l.mu.Lock()
	a := l.acct(query)
	a.compute[p] += d
	o := l.obs
	l.mu.Unlock()
	o.Counter("redoop_query_compute_seconds_total",
		obs.L("query", query), obs.L("phase", string(p))).Add(d.Seconds())
}

// AddIO attributes bytes of kind-k traffic to query. Integer and
// commutative, so safe from parallel prepare paths (DFS reads during
// split decode).
func (l *Ledger) AddIO(query string, k IOKind, bytes int64) {
	if l == nil || bytes == 0 || query == "" {
		return
	}
	l.mu.Lock()
	a := l.acct(query)
	a.io[k] += bytes
	o := l.obs
	l.mu.Unlock()
	o.Counter("redoop_query_io_bytes_total",
		obs.L("query", query), obs.L("kind", string(k))).Add(float64(bytes))
}

// closeLocked accrues and removes an open residency. Caller holds l.mu.
func (l *Ledger) closeLocked(key string, at simtime.Time) {
	r, ok := l.open[key]
	if !ok {
		return
	}
	delete(l.open, key)
	a := l.acct(r.owner)
	if at.After(r.since) {
		a.byteSeconds += float64(r.bytes) * at.Sub(r.since).Seconds()
	}
	a.curResident -= r.bytes
	a.expired++
	if o := l.obs; o != nil {
		o.Gauge("redoop_query_resident_bytes", obs.L("query", r.owner)).Set(float64(a.curResident))
		o.Gauge("redoop_query_cache_byte_seconds", obs.L("query", r.owner)).Set(a.byteSeconds)
	}
}

// CacheRegistered opens a residency interval for pid/typ, owned by
// query, starting at `at`. A still-open interval for the same key
// (re-registration after refresh or re-homing) is closed first, so
// byte·seconds never double-count.
func (l *Ledger) CacheRegistered(query, pid string, typ int, bytes int64, at simtime.Time, recompute simtime.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := resKey(pid, typ)
	l.closeLocked(key, at)
	l.open[key] = &residency{
		owner: query, pid: pid, typ: typ,
		bytes: bytes, since: at, recompute: recompute,
	}
	a := l.acct(query)
	a.curResident += bytes
	if a.curResident > a.peakResident {
		a.peakResident = a.curResident
	}
	a.registered++
	if at.After(l.watermark) {
		l.watermark = at
	}
	if o := l.obs; o != nil {
		o.Gauge("redoop_query_resident_bytes", obs.L("query", query)).Set(float64(a.curResident))
		o.Gauge("redoop_query_peak_resident_bytes", obs.L("query", query)).Set(float64(a.peakResident))
	}
}

// CacheExpired closes pid/typ's residency at `at` (purge notification,
// loss discovery, or retirement). Unknown keys are ignored — chaos may
// destroy bytes the ledger closed already, and double expiry must not
// double-count.
func (l *Ledger) CacheExpired(pid string, typ int, at simtime.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if at.After(l.watermark) {
		l.watermark = at
	}
	l.closeLocked(resKey(pid, typ), at)
}

// Residency returns the feature vector of pid/typ's still-open
// residency interval; ok is false when none is open. Deterministic
// given the ledger's (serially recorded) event stream, so replacement
// decisions ranked on it are byte-identical across -workers settings.
func (l *Ledger) Residency(pid string, typ int) (ResidencyFeatures, bool) {
	if l == nil {
		return ResidencyFeatures{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.open[resKey(pid, typ)]
	if !ok {
		return ResidencyFeatures{}, false
	}
	return ResidencyFeatures{
		Query: r.owner, Bytes: r.bytes,
		RecomputeNS: int64(r.recompute), Hits: r.hits, Since: r.since,
	}, true
}

// CacheHit credits query with the stored recompute cost of pid/typ —
// the work the hit avoided — and arms the net-of-load adjustment: the
// next CacheLoaded for the same key subtracts the load actually paid.
func (l *Ledger) CacheHit(query, pid string, typ int, at simtime.Time) {
	l.cacheHit(query, pid, typ, at, false)
}

// CacheHitCross is CacheHit for a cross-query reuse hit: the consumer
// query is credited with the producer's stored recompute cost exactly
// as on an ordinary hit, and the hit is additionally attributed to the
// consumer's cross-query counters so reuse savings are separable.
func (l *Ledger) CacheHitCross(query, pid string, typ int, at simtime.Time) {
	l.cacheHit(query, pid, typ, at, true)
}

func (l *Ledger) cacheHit(query, pid string, typ int, at simtime.Time, cross bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	key := resKey(pid, typ)
	r, ok := l.open[key]
	var o *obs.Observer
	var saved simtime.Duration
	if ok {
		a := l.acct(query)
		a.saved += r.recompute
		a.hits++
		r.hits++
		if cross {
			a.crossSaved += r.recompute
			a.crossHits++
		}
		l.pending[key] = pendingHit{query, r.recompute}
		saved = a.saved
		o = l.obs
	}
	if at.After(l.watermark) {
		l.watermark = at
	}
	l.mu.Unlock()
	if ok {
		o.Gauge("redoop_query_saved_seconds", obs.L("query", query)).Set(saved.Seconds())
		if cross {
			o.Counter("redoop_query_cross_reuse_hits_total", obs.L("query", query)).Inc()
		}
	}
}

// CacheLoaded nets the cost of reading cache pid/typ into its consumer
// out of that consumer's saving — but only when a hit armed the
// adjustment for this key. Loads of freshly built caches carry no
// pending hit and leave SavedNS untouched. A netted load larger than
// the hit's recompute is counted as a violation for CheckConservation.
func (l *Ledger) CacheLoaded(pid string, typ int, load simtime.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	key := resKey(pid, typ)
	var o *obs.Observer
	var saved simtime.Duration
	hit, ok := l.pending[key]
	if ok {
		delete(l.pending, key)
		a := l.acct(hit.query)
		a.saved -= load
		if load > hit.recompute {
			a.overLoads++
		}
		saved = a.saved
		o = l.obs
	}
	l.mu.Unlock()
	if ok {
		o.Gauge("redoop_query_saved_seconds", obs.L("query", hit.query)).Set(saved.Seconds())
	}
}

// Advance moves the accrual watermark forward; open residencies accrue
// byte·seconds up to it when snapshotted. Engines call it at the end
// of every recurrence with the completion instant.
func (l *Ledger) Advance(at simtime.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if at.After(l.watermark) {
		l.watermark = at
	}
}

// byteSecondsLocked returns a query's accrued byte·seconds including
// open residencies up to the watermark. Open contributions sum in
// sorted key order: float addition is order-sensitive in the last ulp,
// and map iteration order would make the total nondeterministic.
// Caller holds l.mu.
func (l *Ledger) byteSecondsLocked(a *queryAcct) float64 {
	keys := make([]string, 0, len(l.open))
	for k, r := range l.open {
		if r.owner == a.name && l.watermark.After(r.since) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bs := a.byteSeconds
	for _, k := range keys {
		r := l.open[k]
		bs += float64(r.bytes) * l.watermark.Sub(r.since).Seconds()
	}
	return bs
}

// ByteSeconds returns query's cache occupancy integral to the
// watermark; 0 for unknown queries or a nil ledger.
func (l *Ledger) ByteSeconds(query string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.queries[query]
	if !ok {
		return 0
	}
	return l.byteSecondsLocked(a)
}

// CacheROI returns query's saved recompute per resident byte·second —
// the cost signal the reuse index's keep/evict policy ranks producers
// by. 0 for unknown queries, queries that never held cache bytes, or a
// nil ledger. Deterministic: reads only serial-commit-path state.
func (l *Ledger) CacheROI(query string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.queries[query]
	if !ok {
		return 0
	}
	bs := l.byteSecondsLocked(a)
	if bs <= 0 {
		return 0
	}
	return float64(int64(a.saved)) / bs
}

// SavedNS returns query's net recompute saving; 0 for unknown queries
// or a nil ledger.
func (l *Ledger) SavedNS(query string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.queries[query]
	if !ok {
		return 0
	}
	return int64(a.saved)
}

// SlotComputeNS sums slot-occupying compute (every phase except
// shuffle) over the named queries, or over all queries when none are
// named — the conservation numerator.
func (l *Ledger) SlotComputeNS(queries ...string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var total simtime.Duration
	sum := func(a *queryAcct) {
		for p, d := range a.compute {
			if slotPhase(p) {
				total += d
			}
		}
	}
	if len(queries) == 0 {
		for _, a := range l.queries {
			sum(a)
		}
	} else {
		for _, q := range queries {
			if a, ok := l.queries[q]; ok {
				sum(a)
			}
		}
	}
	return int64(total)
}

// CheckConservation asserts the ledger's structural invariants against
// an engine-side busy-time total:
//
//  1. slot compute attributed to the named queries (all, when none
//     named) must not exceed busyNS — the cluster cannot have been
//     busy for less time than the ledger attributed to queries;
//  2. per query, registered == expired + open residencies — every
//     byte·second interval is closed exactly once or still open;
//  3. per query, no netted cache load exceeded the recompute cost its
//     hit credited — a reuse never costs more than it saved.
//
// Returns nil when all three hold.
func (l *Ledger) CheckConservation(busyNS int64, queries ...string) error {
	if l == nil {
		return nil
	}
	if got := l.SlotComputeNS(queries...); got > busyNS {
		return fmt.Errorf("account: attributed slot compute %d ns exceeds cluster busy time %d ns", got, busyNS)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	openBy := map[string]int{}
	for _, r := range l.open {
		openBy[r.owner]++
	}
	check := func(a *queryAcct) error {
		if a.registered != a.expired+openBy[a.name] {
			return fmt.Errorf("account: query %s: %d residencies registered but %d expired + %d open",
				a.name, a.registered, a.expired, openBy[a.name])
		}
		if a.overLoads > 0 {
			return fmt.Errorf("account: query %s: %d cache load(s) cost more than the recompute their hit saved",
				a.name, a.overLoads)
		}
		return nil
	}
	if len(queries) == 0 {
		for _, name := range l.order {
			if err := check(l.queries[name]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, q := range queries {
		if a, ok := l.queries[q]; ok {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// OpenResidencies returns every still-open cache interval, sorted by
// key for determinism.
func (l *Ledger) OpenResidencies() []Residency {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.open))
	for k := range l.open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Residency, 0, len(keys))
	for _, k := range keys {
		r := l.open[k]
		out = append(out, Residency{
			Query: r.owner, PID: r.pid, Type: r.typ,
			Bytes: r.bytes, Since: r.since,
		})
	}
	return out
}

// Snapshot returns every query's costs in registration order.
func (l *Ledger) Snapshot() []QueryCosts {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	openBy := map[string]int{}
	for _, r := range l.open {
		openBy[r.owner]++
	}
	out := make([]QueryCosts, 0, len(l.order))
	for _, name := range l.order {
		a := l.queries[name]
		qc := QueryCosts{
			Query:             a.name,
			Tenant:            a.tenant,
			ComputeNS:         map[string]int64{},
			IOBytes:           map[string]int64{},
			CacheByteSeconds:  l.byteSecondsLocked(a),
			PeakResidentBytes: a.peakResident,
			CurResidentBytes:  a.curResident,
			SavedNS:           int64(a.saved),
			CrossSavedNS:      int64(a.crossSaved),
			CacheHits:         a.hits,
			CrossQueryHits:    a.crossHits,
			CacheRegistered:   a.registered,
			CacheExpired:      a.expired,
			OpenResidencies:   openBy[a.name],
		}
		for _, p := range Phases {
			if d := a.compute[p]; d != 0 {
				qc.ComputeNS[string(p)] = int64(d)
			}
			qc.TotalComputeNS += int64(a.compute[p])
			if slotPhase(p) {
				qc.SlotComputeNS += int64(a.compute[p])
			}
		}
		for _, k := range IOKinds {
			if b := a.io[k]; b != 0 {
				qc.IOBytes[string(k)] = b
			}
		}
		if qc.CacheByteSeconds > 0 {
			qc.CacheROI = float64(qc.SavedNS) / qc.CacheByteSeconds
		}
		out = append(out, qc)
	}
	return out
}

// TenantCosts is one tenant's rollup across its queries. The empty
// tenant ("") aggregates untenanted queries.
type TenantCosts struct {
	Tenant           string  `json:"tenant"`
	Queries          int     `json:"queries"`
	TotalComputeNS   int64   `json:"totalComputeNS"`
	SlotComputeNS    int64   `json:"slotComputeNS"`
	IOBytes          int64   `json:"ioBytes"`
	CacheByteSeconds float64 `json:"cacheByteSeconds"`
	SavedNS          int64   `json:"savedNS"`
	// CacheROI is saved recompute per resident byte·second, the
	// tenant-level "is the cache paying rent" quotient.
	CacheROI float64 `json:"cacheROI"`
}

// RollupTenants aggregates per-query costs by tenant, sorted by tenant
// name (the "" rollup of untenanted queries first).
func RollupTenants(snaps []QueryCosts) []TenantCosts {
	byTenant := map[string]*TenantCosts{}
	var order []string
	for _, qc := range snaps {
		tc, ok := byTenant[qc.Tenant]
		if !ok {
			tc = &TenantCosts{Tenant: qc.Tenant}
			byTenant[qc.Tenant] = tc
			order = append(order, qc.Tenant)
		}
		tc.Queries++
		tc.TotalComputeNS += qc.TotalComputeNS
		tc.SlotComputeNS += qc.SlotComputeNS
		for _, b := range qc.IOBytes {
			tc.IOBytes += b
		}
		tc.CacheByteSeconds += qc.CacheByteSeconds
		tc.SavedNS += qc.SavedNS
	}
	sort.Strings(order)
	out := make([]TenantCosts, 0, len(order))
	for _, t := range order {
		tc := byTenant[t]
		if tc.CacheByteSeconds > 0 {
			tc.CacheROI = float64(tc.SavedNS) / tc.CacheByteSeconds
		}
		out = append(out, *tc)
	}
	return out
}
