package serve_test

import (
	"fmt"

	"supremm/internal/serve"
)

func ExampleParseQuery() {
	q, err := serve.ParseQuery("group=app metrics=cpu_idle,cpu_flops app=namd limit=5 normalize=true")
	if err != nil {
		panic(err)
	}
	fmt.Println("group:", q.GroupBy)
	fmt.Println("metrics:", q.Metrics)
	fmt.Println("app filter:", q.Filter.App)
	fmt.Println("normalize:", q.Normalize)
	// Output:
	// group: 1
	// metrics: [cpu_idle cpu_flops]
	// app filter: namd
	// normalize: true
}
