package flog

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJournalRead feeds arbitrary bytes to the journal reader, which reads
// files appended by processes that may have been SIGKILLed mid-line.
// Rejection must be an error, never a panic, and whatever Read accepts
// must re-marshal and re-read to equal records.
func FuzzJournalRead(f *testing.F) {
	var good bytes.Buffer
	j := New(&good, "coordinator", "coord-1", WithClock(testClock()))
	j.Emit(Record{Event: EvPlanned, Cell: "pgbench/live", Key: "k1"})
	j.Emit(Record{Event: EvHeartbeat, Level: LevelDebug, Worker: "w0", Lease: 1, Records: 500, Bytes: 2048, RTTMicros: 120})
	j.Emit(Record{Event: EvCellFail, Level: LevelError, Worker: "w0", Lease: 1, Err: "boom"})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-7]) // torn final line
	f.Add([]byte("{\"event\":\"drain\",\"level\":\"warn\",\"ts\":\"2026-08-09T12:00:00+02:00\"}\r\n\n"))
	f.Add([]byte("not json\n{\"event\":\"drain\"}\n")) // corrupt line before the last
	f.Add([]byte("{\"level\":\"info\"}\n"))            // missing event
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-marshal: %v", rec, err)
			}
			buf.Write(append(line, '\n'))
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of re-marshaled journal: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-read %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if !a.TS.Equal(b.TS) {
				t.Fatalf("record %d timestamp changed: %v != %v", i, a.TS, b.TS)
			}
			a.TS, b.TS = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("record %d changed in round trip: %+v != %+v", i, a, b)
			}
		}
	})
}
