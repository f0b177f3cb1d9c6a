// Package metrics defines the system-level attributes PREPARE monitors,
// along with sample vectors, labeled time series, summary statistics and
// value discretizers used by the prediction models.
//
// The paper's VM monitor collects 13 resource attributes per VM every
// sampling interval (default 5 s): CPU, memory, network, disk and load
// statistics. This package gives those attributes stable identities so
// every downstream component (Markov value predictors, the TAN
// classifier, cause inference, prevention actuation) can refer to them
// consistently.
package metrics

import "fmt"

// Attribute identifies one of the system-level metrics collected per VM.
type Attribute int

// The 13 monitored attributes, mirroring the paper's domain-0 collection
// (CPU usage, free memory, network traffic, disk I/O statistics, load).
const (
	CPUUser Attribute = iota + 1
	CPUSystem
	CPUTotal
	FreeMem
	MemUsed
	NetIn
	NetOut
	DiskRead
	DiskWrite
	Load1
	Load5
	CtxSwitch
	PageFaults
)

// NumAttributes is the number of monitored attributes per VM.
const NumAttributes = 13

var attributeNames = map[Attribute]string{
	CPUUser:    "cpu_user",
	CPUSystem:  "cpu_system",
	CPUTotal:   "cpu_total",
	FreeMem:    "free_mem",
	MemUsed:    "mem_used",
	NetIn:      "net_in",
	NetOut:     "net_out",
	DiskRead:   "disk_read",
	DiskWrite:  "disk_write",
	Load1:      "load1",
	Load5:      "load5",
	CtxSwitch:  "ctx_switch",
	PageFaults: "page_faults",
}

// String returns the canonical snake_case name of the attribute.
func (a Attribute) String() string {
	if name, ok := attributeNames[a]; ok {
		return name
	}
	return fmt.Sprintf("attribute(%d)", int(a))
}

// Valid reports whether a names one of the 13 monitored attributes. It
// is a range check, not a lookup in attributeNames: Index calls it for
// every attribute of every sample.
func (a Attribute) Valid() bool { return a >= CPUUser && a <= PageFaults }

// Index returns the 0-based position of the attribute within a sample
// vector. It panics on invalid attributes, which indicates a programming
// error rather than a runtime condition.
func (a Attribute) Index() int {
	if !a.Valid() {
		panic(fmt.Sprintf("metrics: invalid attribute %d", int(a)))
	}
	return int(a) - 1
}

// AllAttributes returns the 13 attributes in vector order. The slice is
// freshly allocated so callers may modify it.
func AllAttributes() []Attribute {
	attrs := make([]Attribute, 0, NumAttributes)
	for i := 1; i <= NumAttributes; i++ {
		attrs = append(attrs, Attribute(i))
	}
	return attrs
}
