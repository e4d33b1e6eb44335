package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// topK is the number of answers every query asks for ("one screen of
// titles" in the paper).
const topK = 20

// maxConns bounds connections per librarian: the load never has more than
// two clients, so two is what a right-sized pool would hold.
const maxConns = 2

// A workload is one deployment plus the traffic sent to it.
type workload struct {
	name string
	why  string

	mode    core.Mode
	opts    core.Options
	queries trecsynth.QueryKind
	// corpusScale multiplies the subcollection sizes of
	// trecsynth.DefaultConfig; vocab is the vocabulary size to go with it.
	corpusScale int
	vocab       int
	// tcp serves the librarians on real 127.0.0.1 listeners; otherwise they
	// sit behind in-process simnet pipes shaped by link.
	tcp  bool
	link simnet.LinkConfig
	// central runs the CI preprocessing (central index, text models).
	central bool
	// ingest makes the fleet updatable, streams held-out documents into it
	// and turns the result cache on.
	ingest bool
	// queryFactor multiplies the size of the generated query set (zero
	// means one).
	queryFactor int
}

var workloads = []*workload{
	{
		name: "cv-short-tcp",
		why:  "CV, ~10-term queries over real loopback TCP: per-query work is mostly pool, framing, syscalls and merge, so transport and framing changes show here and kernel changes barely do",
		mode: core.ModeCV, queries: trecsynth.ShortQuery, corpusScale: 1, vocab: 12000, tcp: true,
	},
	{
		name: "cv-long-inproc",
		why:  "CV, ~90-term queries on a doubled corpus over a zero-latency in-process pipe: librarian evaluation is most of the query, so index, codec and search changes show and transport changes should not",
		mode: core.ModeCV, queries: trecsynth.LongQuery, corpusScale: 2, vocab: 20000,
	},
	{
		name: "ci-fetch-wan",
		why:  "CI (G=10, k'=100) with compressed fetch over 4 ms, 1.25 MB/s links: latency is round trips x RTT + bytes / bandwidth, so only fewer or smaller messages move it; CPU-only gains must show no change",
		mode: core.ModeCI, opts: core.Options{Fetch: true, CompressedTransfer: true},
		queries: trecsynth.ShortQuery, corpusScale: 1, vocab: 12000,
		link: simnet.LinkConfig{Latency: 4 * time.Millisecond, Bandwidth: 1.25e6}, central: true,
	},
	{
		name: "ingest-mixed",
		why:  "updatable fleet, result cache on, short CN queries beside a 500 docs/s writer: query gains that cost ingest, segment-count drag and a cache zeroed by every publication show only here",
		mode: core.ModeCN, queries: trecsynth.ShortQuery, corpusScale: 1, vocab: 12000, ingest: true,
		// Eight times the queries: a query must not come round again between
		// two publications, or a slice that happens to fall between them is
		// served from the cache and runs twenty times faster than its
		// neighbours.
		queryFactor: 8,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes are the knobs the smoke path shrinks so that tier-1 tests drive the
// whole harness in seconds.
type sizes struct {
	docDivisor   int // subcollection sizes are divided by this
	shortQueries int
	longQueries  int
	gateProbes   int     // queries checked by the correctness gate
	probeQueries int     // queries the layer probes and exact counts use
	setupReps    int     // set-ups per untraced run; setup_s is their median
	ingestDocs   int     // step 1 of ingest-mixed
	batchDocs    int     // documents per Ingest call
	writerRate   float64 // documents per second offered in step 2
	groupSize    int     // CI: documents per central-index group
}

var fullSizes = sizes{
	docDivisor: 1, shortQueries: 512, longQueries: 256, gateProbes: 16, probeQueries: 64,
	setupReps: 3, ingestDocs: 20000, batchDocs: 100, writerRate: 500, groupSize: 10,
}

var smokeSizes = sizes{
	docDivisor: 17, shortQueries: 64, longQueries: 32, gateProbes: 4, probeQueries: 8,
	setupReps: 2, ingestDocs: 800, batchDocs: 50, writerRate: 1000, groupSize: 10,
}

// inputs is everything a run feeds the system: generated documents and query
// strings, nothing else.
type inputs struct {
	subs []trecsynth.Subcollection // what set-up builds the librarians from
	// held[i] is librarian i's held-out documents in arrival order
	// (ingest-mixed only): the first ingestDocs/len(subs) go in at full speed
	// in step 1, the paced writer streams the rest.
	held     [][]store.Document
	queries  []string
	schedule []int32 // query order: indexes into queries, cycled
}

// makeInputs generates the corpus and the query schedule from the seed.
// streamSeconds is how long the paced writer must be able to run.
func makeInputs(w *workload, sz sizes, seed int64, streamSeconds float64) (*inputs, error) {
	cfg := trecsynth.DefaultConfig()
	cfg.Seed = seed
	cfg.VocabSize = w.vocab
	cfg.NumShortQueries = sz.shortQueries * max(1, w.queryFactor)
	cfg.NumLongQueries = sz.longQueries * max(1, w.queryFactor)
	stream := 0 // extra documents per librarian for the paced writer
	if w.ingest {
		stream = int(sz.writerRate*streamSeconds)/len(cfg.Subs) + sz.batchDocs
	}
	for i := range cfg.Subs {
		cfg.Subs[i].NumDocs = cfg.Subs[i].NumDocs*w.corpusScale/sz.docDivisor + stream
	}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	in := &inputs{subs: corpus.Subcollections}
	if w.ingest {
		heldEach := sz.ingestDocs/len(in.subs) + stream
		in.held = make([][]store.Document, len(in.subs))
		for i := range in.subs {
			docs := in.subs[i].Docs
			if len(docs) <= heldEach {
				return nil, fmt.Errorf("subcollection %s: %d docs cannot hold out %d", in.subs[i].Name, len(docs), heldEach)
			}
			in.held[i] = docs[len(docs)-heldEach:]
			in.subs[i].Docs = docs[:len(docs)-heldEach]
		}
	}
	for _, q := range corpus.QueriesOf(w.queries) {
		in.queries = append(in.queries, q.Text)
	}
	in.schedule = querySchedule(seed, len(in.queries))
	return in, nil
}

// querySchedule returns the order in which clients draw the n queries: a
// seeded shuffle, cycled, so every query is equally likely and none repeats
// before all have run.
func querySchedule(seed int64, n int) []int32 {
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	out := make([]int32, n)
	for i, p := range perm {
		out[i] = int32(p)
	}
	return out
}

// deployment is one built fleet with its receptionist pool.
type deployment struct {
	names   []string
	libs    []*librarian.Librarian          // static workloads
	ups     []*librarian.UpdatableLibrarian // ingest-mixed
	servers []*librarian.Server
	dialer  *librarian.InProcessDialer
	pool    *core.Pool

	buildSeconds float64 // inside librarian.Build / NewUpdatable
	setupSeconds float64 // documents in memory -> first query answerable
	heapMB       float64 // HeapAlloc after a GC at the end of set-up
}

// buildAll builds one librarian per subcollection, nproc at a time — the
// way a fleet of independent sites would start, bounded by this machine.
func buildAll[T any](subs []trecsynth.Subcollection, build func(trecsynth.Subcollection) (T, error)) ([]T, error) {
	out := make([]T, len(subs))
	errs := make([]error, len(subs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			out[i], errs[i] = build(subs[i])
			<-sem
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func buildStatic(subs []trecsynth.Subcollection) ([]*librarian.Librarian, error) {
	return buildAll(subs, func(s trecsynth.Subcollection) (*librarian.Librarian, error) {
		return librarian.Build(s.Name, s.Docs, librarian.BuildOptions{})
	})
}

// setUp builds the workload's deployment from documents in memory and
// returns it ready to answer its first query.
func setUp(w *workload, sz sizes, in *inputs) (*deployment, error) {
	d := &deployment{}
	for _, s := range in.subs {
		d.names = append(d.names, s.Name)
	}
	start := time.Now()
	var err error
	if w.ingest {
		d.ups, err = buildAll(in.subs, func(s trecsynth.Subcollection) (*librarian.UpdatableLibrarian, error) {
			return librarian.NewUpdatable(s.Name, s.Docs, librarian.BuildOptions{})
		})
	} else {
		d.libs, err = buildStatic(in.subs)
	}
	if err != nil {
		return nil, err
	}
	d.buildSeconds = time.Since(start).Seconds()

	var dialer simnet.Dialer
	if w.tcp {
		addrs := make(simnet.TCPDialer, len(d.libs))
		for _, lib := range d.libs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				d.close()
				return nil, err
			}
			srv := librarian.Serve(lib, ln)
			d.servers = append(d.servers, srv)
			addrs[lib.Name()] = srv.Addr().String()
		}
		dialer = addrs
	} else {
		d.dialer = librarian.NewInProcessDialer(d.libs, w.link)
		for _, u := range d.ups {
			d.dialer.AddEndpoint(u.Name(), u, w.link)
		}
		dialer = d.dialer
	}
	cfg := core.Config{MaxConnsPerLibrarian: maxConns}
	if w.ingest {
		cfg.Cache = &core.CacheConfig{}
	}
	d.pool, err = core.NewPool(dialer, d.names, cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, u := range d.ups {
		u.OnUpdate(d.pool.InvalidateCache)
	}
	if _, err := d.pool.SetupVocabulary(); err != nil {
		d.close()
		return nil, err
	}
	if w.central {
		if _, err := d.pool.SetupCentralIndexRemote(sz.groupSize); err != nil {
			d.close()
			return nil, err
		}
		if _, err := d.pool.SetupModels(); err != nil {
			d.close()
			return nil, err
		}
	}
	d.setupSeconds = time.Since(start).Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return d, nil
}

// close tears the deployment down and waits for every goroutine it owns.
func (d *deployment) close() {
	if d.pool != nil {
		d.pool.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	if d.dialer != nil {
		d.dialer.Wait()
	}
	for _, u := range d.ups {
		u.Close()
	}
}

// flushAll makes everything ingested so far searchable.
func (d *deployment) flushAll(ctx context.Context) error {
	for _, u := range d.ups {
		if err := u.Flush(ctx); err != nil {
			return err
		}
	}
	return nil
}
