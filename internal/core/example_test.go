package core_test

import (
	"fmt"

	"supremm/internal/core"
)

func ExamplePersistenceMetrics() {
	// The five system metrics Table 1 analyzes, in column order.
	fmt.Println(core.PersistenceMetrics())
	fmt.Println(core.PersistenceOffsetsMin())
	// Output:
	// [cpu_flops mem_used io_scratch_write net_ib_tx cpu_idle]
	// [10 30 100 500 1000]
}
