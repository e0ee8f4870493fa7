package store_test

import (
	"fmt"

	"supremm/internal/store"
)

func ExampleShardSet_Aggregate() {
	st := store.New()
	st.Add(store.JobRecord{
		JobID: 1, Cluster: "ranger", User: "alice", App: "namd",
		Nodes: 8, Start: 0, End: 3600 * 10, // 80 node-hours
		Status: "COMPLETED", Samples: 60, CPUIdleFrac: 0.05,
	})
	st.Add(store.JobRecord{
		JobID: 2, Cluster: "ranger", User: "bob", App: "serialfarm",
		Nodes: 2, Start: 0, End: 3600 * 10, // 20 node-hours
		Status: "COMPLETED", Samples: 60, CPUIdleFrac: 0.90,
	})
	agg := st.AsSet().Aggregate(store.MetricCPUIdle, store.Filter{Cluster: "ranger", MinSamples: 1})
	fmt.Printf("jobs: %d\n", agg.N)
	fmt.Printf("node-hour-weighted idle: %.2f\n", agg.Mean)
	fmt.Printf("unweighted idle: %.2f\n", agg.UnweightedMean)
	// Output:
	// jobs: 2
	// node-hour-weighted idle: 0.22
	// unweighted idle: 0.48
}

func ExampleShardSet_GroupBy() {
	st := store.New()
	for i, user := range []string{"alice", "alice", "bob"} {
		st.Add(store.JobRecord{
			JobID: int64(i + 1), Cluster: "ranger", User: user, App: "namd",
			Nodes: 4, Start: 0, End: 3600, Status: "COMPLETED", Samples: 6,
			FlopsGF: float64(i + 1),
		})
	}
	groups := st.AsSet().GroupBy(store.ByUser, []store.Metric{store.MetricFlops}, store.Filter{})
	for _, g := range groups {
		fmt.Printf("%s: %d jobs, %.1f GF/s\n", g.Key, g.N, g.Mean[store.MetricFlops])
	}
	// Output:
	// alice: 2 jobs, 1.5 GF/s
	// bob: 1 jobs, 3.0 GF/s
}
