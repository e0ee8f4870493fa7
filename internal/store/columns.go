package store

// Columns is the struct-of-arrays execution layout of the warehouse:
// one contiguous slice per JobRecord field, with the low-cardinality
// string fields dictionary-encoded (a shared value table plus a uint32
// code per row). Rows go in and come out as JobRecords — Store.Add
// appends one, Store.Record and Selection.Records materialize them for
// export — and nothing in between touches a JobRecord: every scan,
// filter and aggregation kernel runs over these slices, and the binary
// snapshot format (codec.go) is a direct serialization of this struct.
type Columns struct {
	JobID []int64
	// keys holds the five string dimensions by GroupKey (KeyColumn).
	keys    [numGroupKeys]DictColumn
	Nodes   []int32
	Submit  []int64
	Start   []int64
	End     []int64
	Samples []int32

	// Metrics holds the numeric columns in AllMetrics order.
	Metrics [NumMetrics][]float64

	// weight caches the §4.1 node-hour weight per row, and the bounds
	// below are used to prove filter predicates vacuous (see
	// compileFilter): the minimum samples value and the end-time range
	// over all rows. All of it is derived, never serialized: derive is
	// the one step that computes a row's share, and appendRecord,
	// gather and decode each call it for every row they build.
	weight     []float64
	minSamples int32
	minEnd     int64
	maxEnd     int64
}

// columnVisitor is one step over the serialized columns: the encoder,
// the decoder and the sizer each implement it, and Columns.each drives
// them all through the same file order.
type columnVisitor interface {
	int64s(col *[]int64)
	int32s(col *[]int32)
	float64s(col *[]float64)
	dict(col *DictColumn)
}

// each visits the serialized columns in the v1 file order — the one
// statement of the snapshot layout (DESIGN.md §11): block k of a
// jobs.supremm or shard file is the k-th call.
func (c *Columns) each(v columnVisitor) {
	v.int64s(&c.JobID)
	for _, k := range [...]GroupKey{ByCluster, ByUser, ByApp, ByScience, ByStatus} {
		v.dict(&c.keys[k])
	}
	v.int32s(&c.Nodes)
	v.int64s(&c.Submit)
	v.int64s(&c.Start)
	v.int64s(&c.End)
	v.int32s(&c.Samples)
	for k := range c.Metrics {
		v.float64s(&c.Metrics[k])
	}
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
	for k, v := range r.keyFields() {
		c.keys[k].append(*v)
	}
	c.Nodes = append(c.Nodes, int32(r.Nodes))
	c.Submit = append(c.Submit, r.Submit)
	c.Start = append(c.Start, r.Start)
	c.End = append(c.End, r.End)
	c.Samples = append(c.Samples, int32(r.Samples))
	for k, v := range r.metricFields() {
		c.Metrics[k] = append(c.Metrics[k], *v)
	}
	c.weight = append(c.weight, 0)
	c.derive(c.Len() - 1)
}

// derive computes row i's derived state from its serialized columns:
// it writes the row's node-hour weight and folds the row into the
// vacuity bounds, which row 0 starts.
func (c *Columns) derive(i int) {
	c.weight[i] = nodeHours(int(c.Nodes[i]), c.Start[i], c.End[i])
	samples, end := c.Samples[i], c.End[i]
	if i == 0 {
		c.minSamples, c.minEnd, c.maxEnd = samples, end, end
		return
	}
	c.minSamples = min(c.minSamples, samples)
	c.minEnd, c.maxEnd = min(c.minEnd, end), max(c.maxEnd, end)
}

// deriveAll derives every row's state, as appending the rows one by one
// would have.
func (c *Columns) deriveAll() {
	c.weight = make([]float64, c.Len())
	c.minSamples, c.minEnd, c.maxEnd = 0, 0, 0
	for i := range c.weight {
		c.derive(i)
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
	for k := range c.keys {
		out.keys[k] = c.keys[k].gather(rows)
	}
	for k := range c.Metrics {
		out.Metrics[k] = gatherCol(c.Metrics[k], rows)
	}
	out.deriveAll()
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
// the weights, the vacuity bounds) from the serialized columns.
// DecodeColumns calls it after a successful structural decode.
func (c *Columns) recomputeDerived() {
	for k := range c.keys {
		c.keys[k].rebuildIndex()
	}
	c.deriveAll()
}

// record materializes row i back into the compatibility JobRecord.
func (c *Columns) record(i int) JobRecord {
	r := JobRecord{
		JobID: c.JobID[i], Nodes: int(c.Nodes[i]),
		Submit: c.Submit[i], Start: c.Start[i], End: c.End[i],
		Samples: int(c.Samples[i]),
	}
	for k, v := range r.keyFields() {
		*v = c.keys[k].value(i)
	}
	for k, v := range r.metricFields() {
		*v = c.Metrics[k][i]
	}
	return r
}
