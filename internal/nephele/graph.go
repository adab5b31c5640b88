package nephele

import (
	"errors"
	"fmt"
	"math"
	"time"

	"adaptio/internal/stream"
)

// Task is the user-supplied processing logic of one vertex. Each parallel
// subtask gets its own Task instance from the vertex's factory.
type Task interface {
	Run(ctx *TaskContext) error
}

// TaskFactory creates one Task per parallel subtask.
type TaskFactory func() Task

// ChannelType selects the transport of an edge. Nephele has file, TCP
// network and in-memory channels; the paper put its compression module into
// the file and network ones (Section III-B), the two this engine implements.
type ChannelType int

// Channel types.
const (
	Network ChannelType = iota // real TCP over loopback
	File                       // staged through a temporary file
)

// String returns a readable channel type name.
func (c ChannelType) String() string {
	switch c {
	case Network:
		return "network"
	case File:
		return "file"
	default:
		return fmt.Sprintf("ChannelType(%d)", int(c))
	}
}

// CompressionMode selects how an edge compresses its traffic.
type CompressionMode int

// Compression modes.
const (
	CompressionOff      CompressionMode = iota // no compression module
	CompressionStatic                          // fixed level (paper's NO..HEAVY rows)
	CompressionAdaptive                        // rate-based decision model (DYNAMIC)
)

// ChannelSpec configures an edge. Every edge is wired round-robin: each
// producer subtask cycles its records over the consumer subtasks.
type ChannelSpec struct {
	Type        ChannelType
	Compression CompressionMode
	// StaticLevel is the pinned ladder level for CompressionStatic.
	StaticLevel int
	// Window is the adaptive decision model's window t; zero means the
	// paper's 2 s.
	Window time.Duration
	// WireMBps, when positive, rate-limits each link's transport to the
	// given wire bandwidth (MB/s). It emulates the constrained, shared
	// NIC of a cloud VM so that the paper's network-channel experiments
	// run end to end inside the real engine with real bytes.
	WireMBps float64
}

func (s ChannelSpec) validate() error {
	switch s.Type {
	case Network, File:
	default:
		return fmt.Errorf("nephele: unknown channel type %d", int(s.Type))
	}
	switch s.Compression {
	case CompressionOff, CompressionStatic, CompressionAdaptive:
	default:
		return fmt.Errorf("nephele: unknown compression mode %d", int(s.Compression))
	}
	if !(s.WireMBps >= 0) || math.IsInf(s.WireMBps, 1) {
		return fmt.Errorf("nephele: wire rate %v MB/s, want finite and non-negative", s.WireMBps)
	}
	levels := len(stream.DefaultLadder())
	if s.Compression == CompressionStatic && (s.StaticLevel < 0 || s.StaticLevel >= levels) {
		return fmt.Errorf("nephele: static level %d outside ladder of %d levels", s.StaticLevel, levels)
	}
	if s.Window < 0 {
		return fmt.Errorf("nephele: negative window %v", s.Window)
	}
	return nil
}

// Vertex is one node of the job graph.
type Vertex struct {
	name        string
	factory     TaskFactory
	parallelism int
	graph       *JobGraph

	inputs  []*Edge
	outputs []*Edge
}

// Name returns the vertex name.
func (v *Vertex) Name() string { return v.name }

// Parallelism returns the number of parallel subtasks.
func (v *Vertex) Parallelism() int { return v.parallelism }

// Edge is one directed connection of the job graph.
type Edge struct {
	from, to *Vertex
	spec     ChannelSpec
}

// Label returns "from->to" for stats keys.
func (e *Edge) Label() string { return e.from.name + "->" + e.to.name }

// Spec returns the edge's channel configuration.
func (e *Edge) Spec() ChannelSpec { return e.spec }

// JobGraph is a directed acyclic graph of tasks, Nephele's job abstraction.
type JobGraph struct {
	name     string
	vertices []*Vertex
	edges    []*Edge
}

// NewJobGraph creates an empty job graph.
func NewJobGraph(name string) *JobGraph {
	return &JobGraph{name: name}
}

// Name returns the job name.
func (g *JobGraph) Name() string { return g.name }

// AddVertex adds a task vertex with the given parallelism.
func (g *JobGraph) AddVertex(name string, factory TaskFactory, parallelism int) *Vertex {
	v := &Vertex{
		name:        name,
		factory:     factory,
		parallelism: parallelism,
		graph:       g,
	}
	g.vertices = append(g.vertices, v)
	return v
}

// Connect adds a channel from one vertex to another.
func (g *JobGraph) Connect(from, to *Vertex, spec ChannelSpec) (*Edge, error) {
	if from == nil || to == nil {
		return nil, errors.New("nephele: Connect with nil vertex")
	}
	if from.graph != g || to.graph != g {
		return nil, errors.New("nephele: vertex belongs to a different graph")
	}
	if from == to {
		return nil, errors.New("nephele: self-loop")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	e := &Edge{from: from, to: to, spec: spec}
	g.edges = append(g.edges, e)
	from.outputs = append(from.outputs, e)
	to.inputs = append(to.inputs, e)
	return e, nil
}

// Validate checks the structural invariants required for execution: at
// least one vertex, positive parallelism, non-nil factories, and acyclicity
// (Nephele jobs are DAGs by definition).
func (g *JobGraph) Validate() error {
	if len(g.vertices) == 0 {
		return errors.New("nephele: empty job graph")
	}
	for _, v := range g.vertices {
		if v.parallelism < 1 {
			return fmt.Errorf("nephele: vertex %q has parallelism %d", v.name, v.parallelism)
		}
		if v.factory == nil {
			return fmt.Errorf("nephele: vertex %q has no task factory", v.name)
		}
	}
	// Kahn's algorithm for cycle detection.
	indeg := make(map[*Vertex]int, len(g.vertices))
	for _, v := range g.vertices {
		indeg[v] = len(v.inputs)
	}
	var queue []*Vertex
	for _, v := range g.vertices {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		seen++
		for _, e := range v.outputs {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	if seen != len(g.vertices) {
		return errors.New("nephele: job graph contains a cycle")
	}
	return nil
}
