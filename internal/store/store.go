// Package store is the embedded data warehouse standing in for the
// paper's IBM Netezza appliance and MySQL database: job-level records
// with the per-job metric summaries the SUPReMM analyses consume, held
// in a struct-of-arrays columnar layout (Columns) with filtering,
// grouping and node-hour-weighted aggregation, plus a versioned binary
// snapshot format (codec.go) for fast daemon loads.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JobRecord is one job's summary row: identity from the accounting join
// plus per-job resource metrics computed over all nodes and sampling
// intervals. Rates are per node; the paper's job-level statistics are
// "calculated by the job weighted by node*hour" (§4.1), which Query
// supports via NodeHours weighting.
type JobRecord struct {
	JobID   int64  `json:"job_id"`
	Cluster string `json:"cluster"`
	User    string `json:"user"`
	App     string `json:"app"`
	Science string `json:"science"`
	Nodes   int    `json:"nodes"`

	Submit int64  `json:"submit"` // unix seconds
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Status string `json:"status"`

	// The eight key metrics of §4.2 and their companions.
	CPUIdleFrac    float64 `json:"cpu_idle"`
	CPUUserFrac    float64 `json:"cpu_user"`
	CPUSysFrac     float64 `json:"cpu_sys"`
	MemUsedGB      float64 `json:"mem_used"`         // mean per node
	MemUsedMaxGB   float64 `json:"mem_used_max"`     // peak over nodes and intervals
	FlopsGF        float64 `json:"cpu_flops"`        // mean GF/s per node
	ScratchWriteMB float64 `json:"io_scratch_write"` // MB/s per node
	WorkWriteMB    float64 `json:"io_work_write"`
	ReadMB         float64 `json:"io_read"`
	IBTxMB         float64 `json:"net_ib_tx"`
	IBRxMB         float64 `json:"net_ib_rx"`
	LnetTxMB       float64 `json:"net_lnet_tx"`

	// Samples is how many monitor intervals contributed; the paper's
	// analyses exclude jobs shorter than one sampling interval (§4.1).
	Samples int `json:"samples"`
}

// WallclockSec returns the job's wall time.
func (r *JobRecord) WallclockSec() int64 { return r.End - r.Start }

// NodeHours returns nodes * wallclock hours, the §4.1 weighting.
func (r *JobRecord) NodeHours() float64 { return nodeHours(r.Nodes, r.Start, r.End) }

// nodeHours is the one §4.1 weight expression, behind both
// JobRecord.NodeHours and every row's cached weight (Columns.derive).
func nodeHours(nodes int, start, end int64) float64 {
	return float64(nodes) * float64(end-start) / 3600
}

// Metric identifies one numeric column of a JobRecord.
type Metric string

// Metric names follow the paper's vocabulary (§4.2).
const (
	MetricCPUIdle      Metric = "cpu_idle"
	MetricCPUUser      Metric = "cpu_user"
	MetricCPUSys       Metric = "cpu_sys"
	MetricMemUsed      Metric = "mem_used"
	MetricMemUsedMax   Metric = "mem_used_max"
	MetricFlops        Metric = "cpu_flops"
	MetricScratchWrite Metric = "io_scratch_write"
	MetricWorkWrite    Metric = "io_work_write"
	MetricRead         Metric = "io_read"
	MetricIBTx         Metric = "net_ib_tx"
	MetricIBRx         Metric = "net_ib_rx"
	MetricLnetTx       Metric = "net_lnet_tx"
)

// KeyMetrics returns the paper's eight-metric independent set (§4.2).
func KeyMetrics() []Metric {
	return []Metric{
		MetricCPUIdle, MetricMemUsed, MetricMemUsedMax, MetricFlops,
		MetricScratchWrite, MetricWorkWrite, MetricIBTx, MetricLnetTx,
	}
}

// AllMetrics returns every numeric column, in the fixed order the
// columnar layout and binary snapshot use (MetricPos).
func AllMetrics() []Metric {
	return []Metric{
		MetricCPUIdle, MetricCPUUser, MetricCPUSys, MetricMemUsed,
		MetricMemUsedMax, MetricFlops, MetricScratchWrite,
		MetricWorkWrite, MetricRead, MetricIBTx, MetricIBRx, MetricLnetTx,
	}
}

// Value extracts a metric from a record, 0 for an unknown name.
func (r *JobRecord) Value(m Metric) float64 {
	pos := MetricPos(m)
	if pos < 0 {
		return 0
	}
	return *r.metricFields()[pos]
}

// metricFields returns the record's metric fields in AllMetrics order —
// the one map from a metric's position to its JobRecord field.
func (r *JobRecord) metricFields() [NumMetrics]*float64 {
	return [NumMetrics]*float64{
		&r.CPUIdleFrac, &r.CPUUserFrac, &r.CPUSysFrac, &r.MemUsedGB,
		&r.MemUsedMaxGB, &r.FlopsGF, &r.ScratchWriteMB,
		&r.WorkWriteMB, &r.ReadMB, &r.IBTxMB, &r.IBRxMB, &r.LnetTxMB,
	}
}

// keyFields returns the record's string dimensions by GroupKey.
func (r *JobRecord) keyFields() [numGroupKeys]*string {
	return [numGroupKeys]*string{
		ByUser: &r.User, ByApp: &r.App, ByScience: &r.Science,
		ByCluster: &r.Cluster, ByStatus: &r.Status,
	}
}

// Store holds job records in the struct-of-arrays Columns layout:
// identity columns as contiguous slices (strings dictionary-encoded)
// plus one float64 column per metric, which keeps aggregation scans
// cache-friendly (see BenchmarkAggregateColumnar). A Store is only built
// and written (Add, Save, SaveBinary, WriteShardDir); it is queried
// through a ShardSet, whose shards hold columns of their own — AsSet for
// a store built in memory.
type Store struct {
	c Columns
}

// New creates an empty store.
func New() *Store { return &Store{} }

// Len returns the number of records.
func (s *Store) Len() int { return s.c.Len() }

// Columns exposes the struct-of-arrays layout for the binary codec and
// for NewShardSet. Callers must treat it as read-only; mutate through
// Add.
func (s *Store) Columns() *Columns { return &s.c }

// FromColumns wraps a decoded columnar layout in a Store. The Columns
// must have derived state populated (DecodeColumns does this); the
// store takes ownership.
func FromColumns(c *Columns) *Store { return &Store{c: *c} }

// Add appends one record. A set AsSet took earlier never sees it.
func (s *Store) Add(r JobRecord) { s.c.appendRecord(r) }

// Record materializes row i back into a JobRecord.
func (s *Store) Record(i int) JobRecord { return s.c.record(i) }

// Save writes the store as JSON lines.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < s.Len(); i++ {
		if err := enc.Encode(s.Record(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a JSON-lines store file.
func Load(r io.Reader) (*Store, error) {
	s := New()
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec JobRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("store: load: %w", err)
		}
		s.Add(rec)
	}
	return s, nil
}

// SortByJobID orders rows by job ID for deterministic output.
func (s *Store) SortByJobID() {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.c.JobID[idx[a]] < s.c.JobID[idx[b]] })
	*s = Store{c: *s.c.gather(idx)}
}
