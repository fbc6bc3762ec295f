package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"heteromem/internal/scheme"
	"heteromem/internal/sim"
	"heteromem/internal/snap"
)

// Manifest makes a sweep crash-resilient: every completed (workload, seed,
// configuration) simulation appends its Result to a JSONL file, and a sweep
// restarted against the same file skips cells that already have a record.
// Workers in a parallel sweep share one Manifest; appends are serialized
// and flushed per record, so a killed sweep loses at most the runs that
// were still in flight. A torn final line (the append the crash
// interrupted) is ignored on reopen.
//
// The manifest is also the durable ledger of the distributed sweep service
// (internal/dsweep): the coordinator owns the file, serves leased cells
// from it, and records every remotely completed cell through StoreRaw. On
// reopen the file is compacted — superseded and duplicate cell lines (from
// takeover races or pre-compaction builds) are dropped via an atomic
// tmp+rename rewrite — so a long-lived coordinator's ledger stays
// proportional to the number of distinct cells, not the number of appends.
type Manifest struct {
	mu   sync.Mutex
	path string
	file *os.File
	w    *bufio.Writer
	done map[string]json.RawMessage

	compacted bool // reopen-time compaction rewrote the file

	ran  atomic.Uint64 // cells simulated by this process
	hits atomic.Uint64 // cells satisfied from the manifest
}

// manifestRecord is one JSONL line: the cell key plus the fields it was
// derived from (for human inspection and cross-scheme reporting) and the
// completed run's Result. Design and Scheme are derived from the config at
// store time; both stay absent for pre-scheme cells, so old ledgers and new
// ones interleave cleanly.
type manifestRecord struct {
	Key      string          `json:"key"`
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Records  uint64          `json:"records"`
	Design   string          `json:"design,omitempty"`
	Scheme   string          `json:"scheme,omitempty"`
	Digest   string          `json:"digest"`
	Result   json.RawMessage `json:"result"`
}

// manifestKey identifies a sweep cell. The config digest covers everything
// semantically relevant except MaxRecords (a run-control field), so the
// record budget is keyed explicitly.
func manifestKey(name string, seed int64, cfg sim.Config) string {
	return fmt.Sprintf("%s|%d|%d|%016x", name, seed, cfg.MaxRecords, sim.ConfigDigest(cfg))
}

// CellKey exposes the manifest's cell identity to the distributed sweep
// coordinator: workload name, generator seed, record budget, and the
// semantic config digest.
func CellKey(name string, seed int64, cfg sim.Config) string {
	return manifestKey(name, seed, cfg)
}

// OpenManifest opens (creating if needed) a sweep manifest file and loads
// its completed-run records. Unparseable lines — a torn append from a
// killed worker — are skipped, not fatal. If the file holds superseded or
// duplicate lines for the same cell (or torn garbage), it is compacted in
// place: rewritten with exactly one well-formed line per cell via an atomic
// tmp+rename, so the crash-safety contract (a reader never sees a partial
// ledger) holds across the rewrite too.
func OpenManifest(path string) (*Manifest, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	m := &Manifest{path: path, file: f, done: make(map[string]json.RawMessage)}
	var (
		order    []string              // first-completed order, for the rewrite
		lines    = map[string][]byte{} // latest well-formed line per key
		rawLines int                   // every line scanned, well-formed or not
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		rawLines++
		var rec manifestRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
			continue
		}
		if _, seen := m.done[rec.Key]; !seen {
			order = append(order, rec.Key)
		}
		m.done[rec.Key] = append(json.RawMessage(nil), rec.Result...)
		lines[rec.Key] = append([]byte(nil), sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: reading manifest %s: %w", path, err)
	}
	if rawLines > len(m.done) {
		// Superseded/duplicate/torn lines present: compact. The scanner
		// treats a torn trailing fragment as a line, so a freshly crashed
		// append triggers a (cheap, single-line-dropping) rewrite too.
		if err := m.compact(order, lines); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiments: compacting manifest %s: %w", path, err)
		}
		m.compacted = true
		m.w = bufio.NewWriter(m.file)
		return m, nil
	}
	// Appends go after whatever is there. A torn final line (no trailing
	// newline) must not merge with the next record, so terminate it first;
	// the scanner above already ignored it and will keep ignoring the now
	// newline-terminated fragment.
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, err
	}
	if end > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, end-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	m.w = bufio.NewWriter(f)
	return m, nil
}

// compact rewrites the ledger with one line per cell, in first-completed
// order, via a durable atomic replace, then swaps the open handle to the new
// file (positioned at its end for appends).
func (m *Manifest) compact(order []string, lines map[string][]byte) error {
	var data []byte
	for _, key := range order {
		data = append(append(data, lines[key]...), '\n')
	}
	if err := snap.WriteFile(m.path, data, 0o644); err != nil {
		return err
	}
	f, err := os.OpenFile(m.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	m.file.Close()
	m.file = f
	return nil
}

// Len reports how many completed cells the manifest holds.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// Compacted reports whether opening this manifest rewrote the file to drop
// superseded, duplicate, or torn lines.
func (m *Manifest) Compacted() bool { return m.compacted }

// Ran reports how many cells this process simulated (manifest misses).
func (m *Manifest) Ran() uint64 { return m.ran.Load() }

// Hits reports how many cells were satisfied from stored records.
func (m *Manifest) Hits() uint64 { return m.hits.Load() }

// lookup returns the stored Result for a cell, if present.
func (m *Manifest) lookup(name string, seed int64, cfg sim.Config) (sim.Result, bool, error) {
	key := manifestKey(name, seed, cfg)
	m.mu.Lock()
	raw, ok := m.done[key]
	m.mu.Unlock()
	if !ok {
		return sim.Result{}, false, nil
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return sim.Result{}, false, fmt.Errorf("experiments: manifest record %s: %w", key, err)
	}
	m.hits.Add(1)
	return res, true, nil
}

// LookupRaw returns the stored raw Result JSON for a cell key, if present.
// It is the coordinator's lease filter: a cell whose key is already in the
// ledger is complete and must not be leased again.
func (m *Manifest) LookupRaw(key string) (json.RawMessage, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	raw, ok := m.done[key]
	if !ok {
		return nil, false
	}
	return append(json.RawMessage(nil), raw...), true
}

// store appends a completed cell and flushes it to the file, so the record
// survives even if the process is killed immediately after.
func (m *Manifest) store(name string, seed int64, cfg sim.Config, res sim.Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = m.storeRaw(manifestKey(name, seed, cfg), name, seed, cfg, raw, false)
	return err
}

// StoreRaw records a remotely completed cell: the coordinator passes the
// worker's result bytes through unmodified, so the ledger holds exactly
// what the worker computed (byte-identical to a local run of the same
// cell). Idempotent: a duplicate completion — a takeover race where the
// presumed-dead worker finished after all — is dropped, keeping exactly one
// line per cell. The first write wins. stored is false for a dropped
// duplicate and for an append that failed.
func (m *Manifest) StoreRaw(name string, seed int64, cfg sim.Config, result json.RawMessage) (stored bool, err error) {
	return m.storeRaw(manifestKey(name, seed, cfg), name, seed, cfg, result, true)
}

// storeRaw appends one cell's line to the ledger and records the cell as
// done only once the line is synced, so the ledger never reports a cell
// that is not on disk. With dedup, a cell already recorded is dropped.
func (m *Manifest) storeRaw(key, name string, seed int64, cfg sim.Config, raw json.RawMessage, dedup bool) (stored bool, err error) {
	rec := manifestRecord{
		Key:      key,
		Workload: name,
		Seed:     seed,
		Records:  cfg.MaxRecords,
		Digest:   fmt.Sprintf("%016x", sim.ConfigDigest(cfg)),
		Result:   raw,
	}
	if cfg.Migration != nil {
		rec.Design = cfg.Migration.Design.String()
	}
	if cfg.Scheme != (scheme.Spec{}) {
		rec.Scheme = cfg.Scheme.String()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.done[key]; dup && dedup {
		return false, nil
	}
	m.ran.Add(1)
	if _, err := m.w.Write(append(line, '\n')); err != nil {
		return false, err
	}
	if err := m.w.Flush(); err != nil {
		return false, err
	}
	if err := m.file.Sync(); err != nil {
		return false, err
	}
	m.done[key] = append(json.RawMessage(nil), raw...)
	return true, nil
}

// ManifestEntry is the read-only view of one completed sweep cell, as
// recorded in the manifest ledger. Design and Scheme are empty for cells
// written before those fields existed (such cells ran the default migration
// scheme, but the design is unrecoverable without the original sweep grid).
type ManifestEntry struct {
	Key      string
	Workload string
	Seed     int64
	Records  uint64
	Design   string
	Scheme   string
	Result   sim.Result
}

// ReadManifest decodes every well-formed line of a sweep manifest, last
// line winning per cell key (mirroring OpenManifest's superseding rule),
// in first-seen key order. Torn or foreign lines are skipped, matching the
// ledger's crash-tolerance contract.
func ReadManifest(r io.Reader) ([]ManifestEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var order []string
	byKey := map[string]ManifestEntry{}
	for sc.Scan() {
		var rec manifestRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
			continue
		}
		e := ManifestEntry{
			Key:      rec.Key,
			Workload: rec.Workload,
			Seed:     rec.Seed,
			Records:  rec.Records,
			Design:   rec.Design,
			Scheme:   rec.Scheme,
		}
		if err := json.Unmarshal(rec.Result, &e.Result); err != nil {
			continue
		}
		if _, seen := byKey[rec.Key]; !seen {
			order = append(order, rec.Key)
		}
		byKey[rec.Key] = e
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("experiments: reading manifest: %w", err)
	}
	out := make([]ManifestEntry, 0, len(order))
	for _, key := range order {
		out = append(out, byKey[key])
	}
	return out, nil
}

// Close flushes and closes the manifest file.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.w.Flush(); err != nil {
		m.file.Close()
		return err
	}
	return m.file.Close()
}
