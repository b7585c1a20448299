package trace

import (
	"bytes"
	"testing"

	"github.com/hpcfail/hpcfail/internal/validate"
)

// FuzzLoadTables runs every non-failure table through the one table reader
// under all three policies: nothing panics, and off Strict every data row
// scanned is either kept or skipped. FuzzLoadFailuresCSV covers failures.
func FuzzLoadTables(f *testing.F) {
	for _, write := range []func(*bytes.Buffer) error{
		func(w *bytes.Buffer) error {
			return WriteSystems(w, []SystemInfo{{ID: 20, Group: Group1, Nodes: 4, ProcsPerNode: 4, Period: Interval{Start: ts(0), End: ts(100)}}})
		},
		func(w *bytes.Buffer) error {
			return WriteJobs(w, []Job{{System: 20, ID: 1, User: 3, Submit: ts(0), Dispatch: ts(1), End: ts(2), Procs: 8, Nodes: []int{0, 1}}})
		},
		func(w *bytes.Buffer) error {
			return WriteTemps(w, []TempSample{{System: 20, Node: 1, Time: ts(3), Celsius: 27.5}})
		},
		func(w *bytes.Buffer) error {
			return WriteMaintenance(w, []MaintenanceEvent{{System: 20, Node: 2, Time: ts(4), Scheduled: true}})
		},
		func(w *bytes.Buffer) error {
			return WriteNeutrons(w, []NeutronSample{{Time: ts(5), CountsPerMinute: 3800.25}})
		},
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(append([]byte("\xEF\xBB\xBF"), buf.Bytes()...))
		f.Add(bytes.ReplaceAll(buf.Bytes(), []byte(","), []byte(",\x01 ")))
	}
	f.Add([]byte(""))
	f.Add([]byte("20,1\n\"unterminated"))
	f.Add([]byte("time,counts_per_minute\n2001-03-01T00:00:00Z,\"3\"8\"\n,\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTable(t, systemsTable, data)
		fuzzTable(t, jobsTable, data)
		fuzzTable(t, tempsTable, data)
		fuzzTable(t, maintenanceTable, data)
		fuzzTable(t, neutronsTable, data)
	})
}

func fuzzTable[T any](t *testing.T, tbl table[T], data []byte) {
	for _, p := range allPolicies {
		rep := &validate.Report{}
		kept := 0
		err := tbl.read(bytes.NewReader(data), p, rep, func(T, int) { kept++ })
		if p.Mode == validate.Strict {
			continue // rejecting garbage is fine; panicking is not
		}
		if err != nil {
			t.Fatalf("%s under %s: %v", tbl.file, p.Mode, err)
		}
		var st validate.TableStat
		if s := rep.Tables[tbl.file]; s != nil {
			st = *s
		}
		if st.Records != kept+st.Skipped {
			t.Fatalf("%s under %s: scanned %d, kept %d, skipped %d", tbl.file, p.Mode, st.Records, kept, st.Skipped)
		}
	}
}
