// Package fleet measures the real binaries at the paper's scale: one
// Ranger night of raw TACC_Stats through cmd/ingest, and eighteen
// months of history through supremmd. It has no product code; the
// measurement is TestFleet, off unless -fleet is given (make fleet):
//
//	go test ./internal/fleet -run TestFleet -fleet -fleet-out FLEET.json -timeout 60m
//
// It needs about 3 GB of disk and about 2.2 GB of memory for the
// history's simulate run.
package fleet
