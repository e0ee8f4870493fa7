package sched

import (
	"math"
	"reflect"
	"testing"

	"supremm/internal/workload"
)

func TestPolicyStrings(t *testing.T) {
	if PolicyEASY.String() != "easy" || PolicyFIFO.String() != "fifo" ||
		PolicyComplementary.String() != "complementary" {
		t.Error("policy strings wrong")
	}
	if Policy(9).String() != "policy?" {
		t.Error("unknown policy string")
	}
}

func TestFIFOPolicyNeverBackfills(t *testing.T) {
	c := testCluster(t, 4)
	s := New(c, 0)
	s.Policy = PolicyFIFO
	s.Submit(job(1, 3, 0, 100))
	s.Step(0)
	s.Submit(job(2, 4, 1, 100)) // head, cannot fit
	s.Submit(job(3, 1, 2, 10))  // would backfill under EASY
	started, _ := s.Step(2)
	if len(started) != 0 {
		t.Fatalf("FIFO started %d jobs ahead of the head", len(started))
	}
}

// jobWithApp builds a job bound to a named archetype.
func jobWithApp(id int64, appName string, nodes int, submit, runtime float64) *workload.Job {
	apps := workload.DefaultApps()
	return &workload.Job{
		ID:    id,
		User:  &workload.User{ID: 1, Name: "u", Science: workload.Physics},
		App:   workload.AppByName(apps, appName),
		Nodes: nodes, SubmitMin: submit, RuntimeMin: runtime,
		ReqMin: runtime * 1.2, Status: workload.Completed,
	}
}

func TestComplementaryPolicyPicksTheComplement(t *testing.T) {
	// The cluster is running a heavy-IO job (datamover). Two backfill
	// candidates fit: another datamover (IO-hot) and a milc (network-
	// hot, IO-cold). Complementary must pick milc; EASY would take the
	// first in queue order.
	build := func(policy Policy) int64 {
		c := testCluster(t, 8)
		s := New(c, 0)
		s.Policy = policy
		s.Submit(jobWithApp(1, "datamover", 4, 0, 500))
		s.Step(0)
		s.Submit(jobWithApp(2, "milc", 8, 1, 500))     // head, cannot fit
		s.Submit(jobWithApp(3, "datamover", 2, 2, 50)) // first candidate
		s.Submit(jobWithApp(4, "milc", 2, 3, 50))      // complement
		started, _ := s.Step(3)
		if len(started) == 0 {
			t.Fatalf("policy %v: nothing started", policy)
		}
		// Both candidates may eventually backfill; the policy shows in
		// which one is picked first.
		return started[0].Job.ID
	}
	if got := build(PolicyEASY); got != 3 {
		t.Errorf("EASY picked job %d, want first eligible (3)", got)
	}
	if got := build(PolicyComplementary); got != 4 {
		t.Errorf("complementary picked job %d, want the IO-cold milc (4)", got)
	}
}

func TestComplementaryFallsBackWhenIdle(t *testing.T) {
	// With nothing running, the score is flat zero and the first
	// eligible candidate starts, exactly like EASY.
	c := testCluster(t, 2)
	s := New(c, 0)
	s.Policy = PolicyComplementary
	s.Submit(jobWithApp(1, "milc", 100, 0, 10)) // oversized head
	s.Submit(jobWithApp(2, "namd", 1, 0, 10))
	s.Submit(jobWithApp(3, "namd", 1, 0, 10))
	started, _ := s.Step(0)
	if len(started) == 0 || started[0].Job.ID != 2 {
		t.Fatalf("idle complementary: %+v", started)
	}
}

func TestComputeWaitStats(t *testing.T) {
	mk := func(id int64, nodes int, waitSec int64) AcctRecord {
		nodesList := make([]string, nodes)
		for i := range nodesList {
			nodesList[i] = "n"
		}
		return AcctRecord{
			JobID: id, Submit: 1000, Start: 1000 + waitSec, End: 1000 + waitSec + 600,
			Status: workload.Completed, NodeList: nodesList,
		}
	}
	acct := []AcctRecord{
		mk(1, 1, 60),    // small, 1 min
		mk(2, 4, 600),   // medium, 10 min
		mk(3, 32, 1800), // large, 30 min
		mk(4, 1, 120),   // small, 2 min
	}
	st := ComputeWaitStats(acct)
	if st.Jobs != 4 {
		t.Fatalf("jobs = %d", st.Jobs)
	}
	if math.Abs(st.MeanWaitMin-(1+10+30+2)/4.0) > 1e-9 {
		t.Errorf("mean = %v", st.MeanWaitMin)
	}
	if st.MaxWaitMin != 30 {
		t.Errorf("max = %v", st.MaxWaitMin)
	}
	if math.Abs(st.SmallMeanMin-1.5) > 1e-9 {
		t.Errorf("small mean = %v", st.SmallMeanMin)
	}
	if st.MediumMeanMin != 10 || st.LargeMeanMin != 30 {
		t.Errorf("medium/large = %v/%v", st.MediumMeanMin, st.LargeMeanMin)
	}
	empty := ComputeWaitStats(nil)
	if empty.Jobs != 0 || !math.IsNaN(empty.MeanWaitMin) {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestEASYStillWorksWithPolicyField(t *testing.T) {
	// The refactored backfill loop must preserve the original EASY
	// semantics (regression guard for the policy change).
	c := testCluster(t, 4)
	s := New(c, 0)
	s.Submit(job(1, 3, 0, 100))
	s.Step(0)
	s.Submit(job(2, 4, 1, 100))
	s.Submit(job(3, 1, 2, 50))
	started, _ := s.Step(2)
	if len(started) != 1 || started[0].Job.ID != 3 {
		t.Fatalf("EASY regression: %+v", started)
	}
}

// TestComplementaryPolicyDeterministic: the complementary policy scores
// candidates by sums over the running jobs, and those sums must not
// depend on map order — one seeded workload scheduled twenty times gives
// one accounting log.
func TestComplementaryPolicyDeterministic(t *testing.T) {
	run := func() []AcctRecord {
		c := testCluster(t, 32)
		gen := workload.DefaultGenConfig(c.Config, 7)
		gen.HorizonMin = 30 * 24 * 60
		jobs := workload.NewGenerator(gen).Generate()
		s := New(c, 0)
		s.Policy = PolicyComplementary
		next := 0
		for now := 0.0; now < gen.HorizonMin+7*24*60; now += 10 {
			for ; next < len(jobs) && jobs[next].SubmitMin <= now; next++ {
				s.Submit(jobs[next])
			}
			s.Step(now)
		}
		return s.Accounting()
	}
	want := run()
	if len(want) < 100 {
		t.Fatalf("only %d jobs finished: the workload does not exercise backfill", len(want))
	}
	for i := 1; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: the accounting differs from run 0's", i)
		}
	}
}
