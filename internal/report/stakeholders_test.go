package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestSuiteRendersEveryStakeholder(t *testing.T) {
	r := testRealm(t)
	if len(Stakeholders()) != 6 {
		t.Fatalf("stakeholder classes = %d, want the paper's 6", len(Stakeholders()))
	}
	for _, who := range Stakeholders() {
		var buf bytes.Buffer
		if err := SuiteWithQuality(&buf, who, nil, r); err != nil {
			t.Errorf("%s: %v", who, err)
			continue
		}
		out := buf.String()
		if len(out) < 200 {
			t.Errorf("%s: suspiciously small suite (%d bytes)", who, len(out))
		}
		if !strings.Contains(out, strings.ToUpper(string(who))) {
			t.Errorf("%s: missing suite banner", who)
		}
	}
}

func TestSuiteCrossSystemSections(t *testing.T) {
	// With two realms the user suite gains system advice and the
	// funding suite gains the comparison table.
	r := testRealm(t)
	var buf bytes.Buffer
	if err := SuiteWithQuality(&buf, StakeholderUser, nil, r, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "which system suits") {
		t.Error("user suite missing cross-system advice")
	}
	buf.Reset()
	if err := SuiteWithQuality(&buf, StakeholderFunding, nil, r, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cross-system comparison") {
		t.Error("funding suite missing comparison")
	}
}

func TestSuiteErrors(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	if err := SuiteWithQuality(&buf, Stakeholder("alien"), nil, r); err == nil {
		t.Error("unknown stakeholder should error")
	}
	if err := SuiteWithQuality(&buf, StakeholderUser, nil); err == nil {
		t.Error("no realms should error")
	}
}
