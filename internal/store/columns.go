package store

import "math"

// Columns is the struct-of-arrays execution layout of the warehouse:
// one contiguous slice per JobRecord field, with the low-cardinality
// string fields dictionary-encoded (a shared value table plus a uint32
// code per row). Rows go in and come out as JobRecords — Store.Add
// appends one, Store.Record and Selection.Records materialize them for
// export — and nothing in between touches a JobRecord: every scan,
// filter and aggregation kernel runs over these slices, and the binary
// snapshot format (codec.go) is a direct serialization of this struct.
type Columns struct {
	JobID   []int64
	Cluster DictColumn
	User    DictColumn
	App     DictColumn
	Science DictColumn
	Status  DictColumn
	Nodes   []int32
	Submit  []int64
	Start   []int64
	End     []int64
	Samples []int32

	// Metrics holds the numeric columns in AllMetrics order.
	Metrics [NumMetrics][]float64

	// weight caches the §4.1 node-hour weight per row. It is derived
	// (recomputed on load, never serialized) with the exact expression
	// nodeHours always used, so cached and recomputed values are
	// bit-identical.
	weight []float64

	// Derived bounds used to prove filter predicates vacuous (see
	// compileFilter): the minimum samples value and the end-time range
	// over all rows. Maintained by appendRecord and recomputeDerived.
	minSamples int32
	minEnd     int64
	maxEnd     int64
}

// NumMetrics is the number of numeric metric columns (AllMetrics).
const NumMetrics = 12

// MetricPos maps a metric name to its position in Columns.Metrics and
// in the binary snapshot's column order. Returns -1 for unknown names.
func MetricPos(m Metric) int {
	switch m {
	case MetricCPUIdle:
		return 0
	case MetricCPUUser:
		return 1
	case MetricCPUSys:
		return 2
	case MetricMemUsed:
		return 3
	case MetricMemUsedMax:
		return 4
	case MetricFlops:
		return 5
	case MetricScratchWrite:
		return 6
	case MetricWorkWrite:
		return 7
	case MetricRead:
		return 8
	case MetricIBTx:
		return 9
	case MetricIBRx:
		return 10
	case MetricLnetTx:
		return 11
	default:
		return -1
	}
}

// Metric returns the metric's column, nil for an unknown name.
func (c *Columns) Metric(m Metric) []float64 {
	pos := MetricPos(m)
	if pos < 0 {
		return nil
	}
	return c.Metrics[pos]
}

// NodeHours returns the derived §4.1 node-hour weight column, one value
// per row, bit-identical to JobRecord.NodeHours. Read-only.
func (c *Columns) NodeHours() []float64 { return c.weight }

// DictColumn is one dictionary-encoded string column: Values holds each
// distinct string once, in first-appearance order; Codes holds one
// index into Values per row. The first-appearance order makes the
// encoding a pure function of the append sequence, which is what keeps
// the binary snapshot byte-stable across encode→decode→encode.
type DictColumn struct {
	Values []string
	Codes  []uint32

	// index maps value → code for O(1) appends and filter compilation.
	// Rebuilt on load; never serialized.
	index map[string]uint32

	// counts[code] is how many rows carry the code, used to prove an
	// equality predicate vacuous (matches every row) without a scan.
	counts []int
}

// append encodes one row's value, growing the dictionary on first
// sight.
func (d *DictColumn) append(v string) {
	if d.index == nil {
		d.index = make(map[string]uint32)
	}
	code, ok := d.index[v]
	if !ok {
		code = uint32(len(d.Values))
		d.Values = append(d.Values, v)
		d.index[v] = code
		d.counts = append(d.counts, 0)
	}
	d.Codes = append(d.Codes, code)
	d.counts[code]++
}

// value decodes row i.
func (d *DictColumn) value(i int) string { return d.Values[d.Codes[i]] }

// code resolves a string to its dictionary code; ok=false means no row
// holds the value.
func (d *DictColumn) code(v string) (uint32, bool) {
	c, ok := d.index[v]
	return c, ok
}

// rebuildIndex reconstructs the derived index and counts from Values
// and Codes (after a binary load, which carries only the serialized
// fields).
func (d *DictColumn) rebuildIndex() {
	d.index = make(map[string]uint32, len(d.Values))
	for i, v := range d.Values {
		d.index[v] = uint32(i)
	}
	d.counts = make([]int, len(d.Values))
	for _, c := range d.Codes {
		d.counts[c]++
	}
}

// appendRecord appends one row across every column, maintaining the
// derived weight and bounds.
func (c *Columns) appendRecord(r JobRecord) {
	c.JobID = append(c.JobID, r.JobID)
	c.Cluster.append(r.Cluster)
	c.User.append(r.User)
	c.App.append(r.App)
	c.Science.append(r.Science)
	c.Status.append(r.Status)
	c.Nodes = append(c.Nodes, int32(r.Nodes))
	c.Submit = append(c.Submit, r.Submit)
	c.Start = append(c.Start, r.Start)
	c.End = append(c.End, r.End)
	c.Samples = append(c.Samples, int32(r.Samples))
	for pos, m := range AllMetrics() {
		c.Metrics[pos] = append(c.Metrics[pos], r.Value(m))
	}
	c.weight = append(c.weight, float64(r.Nodes)*float64(r.End-r.Start)/3600)
	n := len(c.JobID)
	if n == 1 {
		c.minSamples = int32(r.Samples)
		c.minEnd, c.maxEnd = r.End, r.End
		return
	}
	if int32(r.Samples) < c.minSamples {
		c.minSamples = int32(r.Samples)
	}
	if r.End < c.minEnd {
		c.minEnd = r.End
	}
	if r.End > c.maxEnd {
		c.maxEnd = r.End
	}
}

// gather returns a new Columns holding c's rows at the given row ids,
// in that order, exactly as appending those rows one by one would have
// built it — the one row-subset primitive behind the day partition,
// ReorderByEndDay, SortByJobID and RepairShard.
func (c *Columns) gather(rows []int) *Columns {
	out := &Columns{}
	if len(rows) == 0 {
		return out
	}
	out.JobID, out.Submit = gatherCol(c.JobID, rows), gatherCol(c.Submit, rows)
	out.Start, out.End = gatherCol(c.Start, rows), gatherCol(c.End, rows)
	out.Nodes, out.Samples = gatherCol(c.Nodes, rows), gatherCol(c.Samples, rows)
	out.Cluster, out.User, out.App = c.Cluster.gather(rows), c.User.gather(rows), c.App.gather(rows)
	out.Science, out.Status = c.Science.gather(rows), c.Status.gather(rows)
	for k := range c.Metrics {
		out.Metrics[k] = gatherCol(c.Metrics[k], rows)
	}
	out.weight = gatherCol(c.weight, rows)
	out.minSamples = out.Samples[0]
	out.minEnd, out.maxEnd = out.End[0], out.End[0]
	for k, end := range out.End {
		out.minSamples = min(out.minSamples, out.Samples[k])
		out.minEnd, out.maxEnd = min(out.minEnd, end), max(out.maxEnd, end)
	}
	return out
}

func gatherCol[T any](col []T, rows []int) []T {
	out := make([]T, len(rows))
	for k, i := range rows {
		out[k] = col[i]
	}
	return out
}

// gather rebuilds the dictionary in first-appearance order through a
// code → local-code table, so no string is hashed per row.
func (d *DictColumn) gather(rows []int) DictColumn {
	out := DictColumn{Codes: make([]uint32, len(rows)), index: make(map[string]uint32)}
	local := make([]uint32, len(d.Values)) // local code + 1; 0 = not seen yet
	for k, i := range rows {
		code := d.Codes[i]
		if local[code] == 0 {
			out.index[d.Values[code]] = uint32(len(out.Values))
			out.Values = append(out.Values, d.Values[code])
			out.counts = append(out.counts, 0)
			local[code] = uint32(len(out.Values))
		}
		out.Codes[k] = local[code] - 1
		out.counts[out.Codes[k]]++
	}
	return out
}

// Len returns the row count.
func (c *Columns) Len() int { return len(c.JobID) }

// recomputeDerived rebuilds every derived field (dictionary indexes,
// the weight cache, the vacuity bounds) from the serialized columns.
// DecodeColumns calls it after a successful structural decode.
func (c *Columns) recomputeDerived() {
	c.Cluster.rebuildIndex()
	c.User.rebuildIndex()
	c.App.rebuildIndex()
	c.Science.rebuildIndex()
	c.Status.rebuildIndex()
	n := c.Len()
	c.weight = make([]float64, n)
	c.minSamples = 0
	c.minEnd, c.maxEnd = 0, 0
	if n > 0 {
		c.minSamples = math.MaxInt32
		c.minEnd, c.maxEnd = math.MaxInt64, math.MinInt64
	}
	for i := 0; i < n; i++ {
		c.weight[i] = float64(int(c.Nodes[i])) * float64(c.End[i]-c.Start[i]) / 3600
		if c.Samples[i] < c.minSamples {
			c.minSamples = c.Samples[i]
		}
		if c.End[i] < c.minEnd {
			c.minEnd = c.End[i]
		}
		if c.End[i] > c.maxEnd {
			c.maxEnd = c.End[i]
		}
	}
}

// record materializes row i back into the compatibility JobRecord.
func (c *Columns) record(i int) JobRecord {
	r := JobRecord{
		JobID: c.JobID[i], Cluster: c.Cluster.value(i), User: c.User.value(i),
		App: c.App.value(i), Science: c.Science.value(i), Nodes: int(c.Nodes[i]),
		Submit: c.Submit[i], Start: c.Start[i], End: c.End[i],
		Status: c.Status.value(i), Samples: int(c.Samples[i]),
	}
	r.CPUIdleFrac = c.Metrics[0][i]
	r.CPUUserFrac = c.Metrics[1][i]
	r.CPUSysFrac = c.Metrics[2][i]
	r.MemUsedGB = c.Metrics[3][i]
	r.MemUsedMaxGB = c.Metrics[4][i]
	r.FlopsGF = c.Metrics[5][i]
	r.ScratchWriteMB = c.Metrics[6][i]
	r.WorkWriteMB = c.Metrics[7][i]
	r.ReadMB = c.Metrics[8][i]
	r.IBTxMB = c.Metrics[9][i]
	r.IBRxMB = c.Metrics[10][i]
	r.LnetTxMB = c.Metrics[11][i]
	return r
}
