package lanl

import (
	"strings"
	"testing"

	"github.com/hpcfail/hpcfail/internal/validate"
)

// TestIssueClassFromParser: a skipped row's class is the one its parser
// failed on, whatever text the bad cell holds. A system cell reading
// "timestamp" is a bad field, and a garbled fixed time a bad timestamp.
func TestIssueClassFromParser(t *testing.T) {
	in := "System,nodenumz,Prob Started,Prob Fixed,Down Time,Facilities,Hardware,Human Error,Network,Undetermined,Software\n" +
		"timestamp,0,07/14/2003 09:30,,,,CPU,,,,\n" +
		"20,1,07/14/2003 09:30,soon,,,CPU,,,,\n" +
		"20,2,07/14/2003 09:30,,,,CPU,,,,\n"
	_, rep, err := ImportDatasetWith(strings.NewReader(in), DefaultMapping(), validate.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Has(validate.BadField, ImportFile, 2) || rep.Has(validate.BadTimestamp, ImportFile, 2) {
		t.Errorf("system cell \"timestamp\" not a bad field:\n%s", rep.Summary())
	}
	if !rep.Has(validate.BadTimestamp, ImportFile, 3) {
		t.Errorf("garbled fixed time not a bad timestamp:\n%s", rep.Summary())
	}
}
