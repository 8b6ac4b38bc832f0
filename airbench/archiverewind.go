package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"time"

	"air/internal/archive"
	"air/internal/obs"
	"air/internal/tick"
	"air/internal/workload"
)

var archiveRewind = &workloadDef{
	name: "archive-rewind",
	run:  runArchiveRewind,
	aliases: map[string]string{
		"throughput_per_s": "queries_per_s",
		"op_p50_ms":        "query_p50_ms",
		"op_p95_ms":        "query_p95_ms",
	},
}

// queryMix is the share, in percent, of each query kind. AsOf folds every
// record up to the tick asked, so its cost grows with the tick; with it at
// 70% the median falls inside the AsOf kind, away from the cheap range
// scans below it and the Diffs at the top.
var queryMix = []struct {
	kind    string
	percent int
}{{"asof", 70}, {"range", 20}, {"diff", 10}}

// query is one generated request against the archive pair.
type query struct {
	kind string
	tick int64 // asof: the tick; range: the first tick of the MTF
}

func (q query) key() string { return fmt.Sprintf("%s/%d", q.kind, q.tick) }

// queryDeck is one pass of the closed loop: a hundred queries in the
// proportions of queryMix, shuffled by the seed. AsOf ticks are stratified
// over the archive — one seeded tick in each of the 70 equal slices of its
// span — and range scans start at seeded MTFs, so every seed asks for the
// same spread of work.
func queryDeck(seed uint64, mtfs int) []query {
	r := splitmix{seed ^ 0xA5C3}
	span := mtfs * mtfTicks
	var deck []query
	for _, m := range queryMix {
		for i := 0; i < m.percent; i++ {
			switch m.kind {
			case "asof":
				lo, hi := span*i/m.percent, span*(i+1)/m.percent
				deck = append(deck, query{kind: m.kind, tick: int64(lo + r.intn(hi-lo))})
			case "range":
				deck = append(deck, query{kind: m.kind, tick: int64(r.intn(mtfs) * mtfTicks)})
			default:
				deck = append(deck, query{kind: m.kind})
			}
		}
	}
	for i := len(deck) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}
	return deck
}

// writeArchivePair writes the archive of the paper's faulty run (the P1
// fault at its Sect. 6 deadline) and of its fault-free twin, each the given
// number of MTFs long. The archives are the same for every seed, so that
// only the queries vary with it.
func writeArchivePair(dir string, mtfs int) error {
	for _, side := range []struct {
		name string
		opts workload.Options
	}{{"faulty", workload.Options{InjectFault: true}}, {"nominal", workload.Options{}}} {
		s, err := openSoak(filepath.Join(dir, side.name), side.opts, nil)
		if err != nil {
			return err
		}
		err = s.m.Run(tick.Ticks(mtfs * mtfTicks))
		if cerr := s.sink.Close(); err == nil {
			err = cerr
		}
		s.m.Shutdown()
		if err != nil {
			return fmt.Errorf("archive %s: %w", side.name, err)
		}
	}
	return nil
}

// archiveTrace times the Reader calls of a traced run.
type archiveTrace struct {
	open, asof, rng, diff durations
	asofPerKrec           []time.Duration
}

// answer runs one query the way archive.Handler does — a Reader opened per
// request — and returns the digest of its JSON encoding.
func answer(dir string, q query, at *archiveTrace) ([32]byte, error) {
	open := func(name string) (*archive.Reader, error) {
		t0 := time.Now()
		r, err := archive.OpenReader(filepath.Join(dir, name))
		if at != nil {
			at.open.since(t0)
		}
		return r, err
	}
	var v any
	switch q.kind {
	case "asof":
		r, err := open("faulty")
		if err != nil {
			return [32]byte{}, err
		}
		t0 := time.Now()
		st, err := r.AsOf(q.tick, 0)
		if err != nil {
			return [32]byte{}, err
		}
		if at != nil {
			d := time.Since(t0)
			at.asof = append(at.asof, d)
			if st.Events > 0 {
				at.asofPerKrec = append(at.asofPerKrec, d*1000/time.Duration(st.Events))
			}
		}
		v = st
	case "range":
		r, err := open("faulty")
		if err != nil {
			return [32]byte{}, err
		}
		t0 := time.Now()
		evs, err := r.Events(archive.Query{SinceTick: q.tick, UntilTick: q.tick + mtfTicks - 1})
		if err != nil {
			return [32]byte{}, err
		}
		if at != nil {
			at.rng.since(t0)
		}
		v = rangeRows(evs)
	case "diff":
		a, err := open("faulty")
		if err != nil {
			return [32]byte{}, err
		}
		b, err := open("nominal")
		if err != nil {
			return [32]byte{}, err
		}
		t0 := time.Now()
		d, err := archive.Diff(a, b)
		if err != nil {
			return [32]byte{}, err
		}
		if at != nil {
			at.diff.since(t0)
		}
		if !d.Diverged {
			return [32]byte{}, fmt.Errorf("diff: the faulty run does not diverge from its twin")
		}
		v = d
	}
	return digestJSON(v)
}

// rangeRows is the /archive/range response body for a scan.
func rangeRows(evs []archive.SeqEvent) any {
	type row struct {
		Seq    uint64     `json:"seq"`
		Record obs.Record `json:"record"`
	}
	rows := make([]row, len(evs))
	for i, e := range evs {
		rows[i] = row{Seq: e.Seq, Record: obs.ToRecord(e.Event)}
	}
	return rows
}

// digestJSON encodes v as archive.Handler does and hashes the bytes.
func digestJSON(v any) ([32]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(data, '\n')), nil
}

func runArchiveRewind(cfg runConfig, tr *tracer) (*phase, error) {
	p := &phase{}
	var dir string
	for i := 0; i <= cfg.size.setupReps/2; i++ { // each set-up writes two archives
		dir = filepath.Join(cfg.work, fmt.Sprintf("pair-%02d", i))
		t0 := time.Now()
		if err := writeArchivePair(dir, cfg.size.archiveMTFs); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0))
	}

	deck := queryDeck(cfg.seed, cfg.size.archiveMTFs)

	var at *archiveTrace
	if tr != nil {
		at = &archiveTrace{}
	}
	answers := map[query][32]byte{}
	kinds := map[string]int{}
	start := time.Now()
	// Whole passes over the deck only, so every repetition measures the mix.
	passes := 0
	for ; until(start, cfg.budget, passes); passes++ {
		var pass time.Duration
		answered := 0
		for _, q := range deck {
			kinds[q.kind]++
			p.attempted++
			t0 := time.Now()
			sum, err := answer(dir, q, at)
			d := time.Since(t0)
			pass += d
			if err != nil {
				p.fail(1, "query %s: %v", q.key(), err)
				continue
			}
			p.ops = append(p.ops, d)
			answered++
			if prev, ok := answers[q]; ok && prev != sum {
				p.fail(1, "query %s: answer changed between repetitions", q.key())
			}
			answers[q] = sum
		}
		p.rep(float64(answered), pass)
	}
	if err := checkAnswers(dir, answers, p); err != nil {
		return nil, err
	}
	p.digests = map[string]string{}
	for q, sum := range answers {
		p.digests[q.key()] = fmt.Sprintf("%x", sum)
	}
	for _, key := range digestMismatches("archive-rewind", cfg, p.digests) {
		p.fail(passes, "query %s: answer differs from digests.json[%s]", key, digestKey(cfg))
	}
	p.length = map[string]any{"queries": p.attempted, "by_kind": kinds, "distinct": len(answers),
		"archive_mtfs": cfg.size.archiveMTFs}
	if tr != nil {
		tr.setMs("archive.open_reader_ms", at.open)
		tr.setMs("archive.asof_ms", at.asof)
		tr.set("archive.asof_us_per_krec", float64(quantile(at.asofPerKrec, 0.5))/float64(time.Microsecond))
		tr.setMs("archive.range_ms", at.rng)
		tr.setMs("archive.diff_ms", at.diff)
	}
	return p, nil
}

// checkAnswers compares every distinct answer with the reference: the same
// query served by archive.Handler. An AsOf answer must also have folded
// exactly the records at or before its tick, counted from a full scan.
func checkAnswers(dir string, answers map[query][32]byte, p *phase) error {
	rd, err := archive.OpenReader(filepath.Join(dir, "faulty"))
	if err != nil {
		return err
	}
	var ticks []int64
	if err := rd.Scan(archive.Query{UntilTick: -1}, func(_ uint64, e obs.Event) error {
		ticks = append(ticks, int64(e.Time))
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })

	queries := make([]query, 0, len(answers))
	for q := range answers {
		queries = append(queries, q)
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].key() < queries[j].key() })
	h := archive.Handler(dir)
	for _, q := range queries {
		key := q.key()
		form := url.Values{}
		switch q.kind {
		case "asof":
			form.Set("run", "faulty")
			form.Set("tick", fmt.Sprint(q.tick))
		case "range":
			form.Set("run", "faulty")
			form.Set("since", fmt.Sprint(q.tick))
			form.Set("until", fmt.Sprint(q.tick+mtfTicks-1))
		case "diff":
			form.Set("a", "faulty")
			form.Set("b", "nominal")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/archive/"+q.kind+"?"+form.Encode(), nil))
		if rec.Code != http.StatusOK {
			p.fail(1, "reference %s: HTTP %d", key, rec.Code)
			continue
		}
		if sha256.Sum256(rec.Body.Bytes()) != answers[q] {
			p.fail(1, "query %s: answer differs from archive.Handler's", key)
			continue
		}
		if q.kind == "asof" {
			var st archive.State
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				return err
			}
			want := sort.Search(len(ticks), func(i int) bool { return ticks[i] > q.tick })
			if st.Events != uint64(want) {
				p.fail(1, "query %s: folded %d records, the scan has %d", key, st.Events, want)
			}
		}
	}
	return nil
}
