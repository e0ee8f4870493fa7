// Command ingest is the ETL stage run standalone: it parses a directory
// of raw TACC_Stats files, joins them with an accounting log by job ID,
// and writes the job-record store, system series, and data-quality
// report — the paper's "ingest into the data warehouse" step (Fig 1).
//
//	ingest -raw ./data/raw -acct ./data/accounting.log -out ./data
//
// By default the ingest runs lenient: unreadable or corrupt files are
// quarantined and accounted for in quality.json rather than aborting
// the run (18 months of production data always contains some damage).
// -strict restores abort-at-first-fault, for validating archives that
// are supposed to be clean.
//
// Profiling the hot path (see "Ingest performance" in README.md):
//
//	ingest -raw ./data/raw -acct ./data/accounting.log -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"supremm/internal/ingest"
	"supremm/internal/sched"
)

func main() {
	var (
		rawDir      = flag.String("raw", "", "directory of raw TACC_Stats files (host/day.raw)")
		acctFl      = flag.String("acct", "", "accounting log file")
		out         = flag.String("out", "data", "output directory")
		workers     = flag.Int("workers", 0, "parallel host workers (0 = GOMAXPROCS)")
		strict      = flag.Bool("strict", false, "abort at the first faulty file instead of quarantining it")
		maxInterval = flag.Int64("max-interval", ingest.DefaultMaxIntervalSec,
			"suppress intervals longer than this many seconds (missing days, clock steps); negative disables")
		retries    = flag.Int("retries", 2, "retries per file for transient read failures")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *rawDir == "" || *acctFl == "" {
		fmt.Fprintln(os.Stderr, "usage: ingest -raw DIR -acct FILE [-out DIR] [-workers N] [-strict] [-max-interval SEC] [-retries N] [-cpuprofile FILE] [-memprofile FILE]")
		os.Exit(2)
	}
	var profFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ingest:", err)
			os.Exit(1)
		}
		profFile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			fmt.Fprintln(os.Stderr, "ingest:", err)
			os.Exit(1)
		}
	}
	policy := ingest.Lenient
	if *strict {
		policy = ingest.Strict
	}
	err := runWorkers(*rawDir, *acctFl, *out, *workers, ingest.Options{
		Policy:         policy,
		MaxIntervalSec: *maxInterval,
		RetryMax:       *retries,
		Backoff: func(attempt int) {
			time.Sleep(time.Duration(attempt) * 100 * time.Millisecond)
		},
	})
	if profFile != nil {
		pprof.StopCPUProfile()
		if cerr := profFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memprofile != "" {
		if perr := writeHeapProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingest:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	return pprof.WriteHeapProfile(f)
}

func runWorkers(rawDir, acctPath, out string, workers int, opts ingest.Options) error {
	af, err := os.Open(acctPath)
	if err != nil {
		return err
	}
	acct, err := sched.ReadAcct(af)
	_ = af.Close() // read-only file; nothing to lose on close
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Workers = workers
	fmt.Fprintf(os.Stderr, "ingesting %s with %d accounting records (%s policy)...\n",
		rawDir, len(acct), opts.Policy)
	res, err := ingest.IngestRawOpts(rawDir, acct, opts)
	if err != nil {
		return err
	}
	// The batch lands through the sequence cmd/simulate shares; supremmd
	// may be polling out.
	if err := ingest.WriteDir(out, res.Store, res.Series, &res.Quality); err != nil {
		return err
	}
	q := &res.Quality
	fmt.Fprintf(os.Stderr, "wrote %d job records, %d series samples (%d unattributed intervals)\n",
		res.Store.Len(), len(res.Series), res.Unattributed)
	fmt.Fprintf(os.Stderr, "data quality: %.1f%% of %d files ingested (%d quarantined), %d records dropped, %d resets, %d intervals clamped, %d retries, %d jobs without data\n",
		q.Completeness()*100, q.FilesScanned, q.FilesQuarantined,
		q.RecordsDropped, q.ResetsDetected, q.IntervalsClamped,
		q.RetriesPerformed, q.JobsNoData)
	return nil
}
