package report

import (
	"bytes"
	"strings"
	"testing"

	"supremm/internal/ingest"
)

func degradedQuality() *ingest.DataQuality {
	return &ingest.DataQuality{
		FilesScanned:      40,
		FilesQuarantined:  2,
		RecordsDropped:    3,
		DuplicatesSkipped: 1,
		ResetsDetected:    1,
		IntervalsClamped:  2,
		RetriesPerformed:  4,
		JobsNoData:        1,
		Quarantined: []ingest.QuarantinedFile{
			{Host: "c101-001.ranger", File: "15126.raw", Reason: "parse: bad counter"},
			{Host: "c101-002.ranger", File: "15127.raw", Reason: "open: permission denied"},
		},
	}
}

func TestDataCompleteness(t *testing.T) {
	var buf bytes.Buffer
	DataCompleteness(&buf, degradedQuality())
	out := buf.String()
	for _, want := range []string{
		"38 of 40 (95.0%)", "records dropped     3", "jobs without data   1",
		"quarantined files", "c101-001.ranger", "15127.raw", "permission denied",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// A clean archive says so and renders no quarantine table.
	buf.Reset()
	DataCompleteness(&buf, &ingest.DataQuality{FilesScanned: 10})
	if !strings.Contains(buf.String(), "no degradation") {
		t.Errorf("clean report:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "quarantined files") {
		t.Error("clean report rendered a quarantine table")
	}

	// A long quarantine list is elided, not dumped wholesale.
	q := degradedQuality()
	for i := 0; i < 30; i++ {
		q.Quarantined = append(q.Quarantined, ingest.QuarantinedFile{Host: "h", File: "f", Reason: "r"})
	}
	buf.Reset()
	DataCompleteness(&buf, q)
	if !strings.Contains(buf.String(), "12 more files") {
		t.Errorf("long list not elided:\n%s", buf.String())
	}
}

func TestSuiteWithQuality(t *testing.T) {
	r := testRealm(t)
	q := degradedQuality()
	for _, who := range []Stakeholder{StakeholderSupport, StakeholderAdmin} {
		var buf bytes.Buffer
		if err := SuiteWithQuality(&buf, who, q, r); err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if !strings.Contains(buf.String(), "data completeness") {
			t.Errorf("%s suite missing completeness section", who)
		}
	}

	// Other stakeholders don't get the operations view.
	var buf bytes.Buffer
	if err := SuiteWithQuality(&buf, StakeholderUser, q, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "data completeness") {
		t.Error("user suite should not carry the completeness section")
	}

	// A nil quality report renders the same suite minus the
	// completeness section, which comes last.
	var withQ, withNil bytes.Buffer
	if err := SuiteWithQuality(&withQ, StakeholderSupport, q, r); err != nil {
		t.Fatal(err)
	}
	if err := SuiteWithQuality(&withNil, StakeholderSupport, nil, r); err != nil {
		t.Fatal(err)
	}
	rest, ok := strings.CutPrefix(withQ.String(), withNil.String())
	if !ok || !strings.HasPrefix(rest, "\n######## SUPPORT suite: data completeness") {
		t.Errorf("nil quality should render the suite without its completeness section; the rest reads:\n%s", rest)
	}
}

func TestHTMLDashboardQuality(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	if err := HTMLDashboard(&buf, degradedQuality(), r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"data completeness", "files quarantined", "c101-001.ranger"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// The plain dashboard is unchanged: no quality section.
	buf.Reset()
	if err := HTMLDashboard(&buf, nil, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "data completeness") {
		t.Error("plain dashboard should not render a quality section")
	}
}
