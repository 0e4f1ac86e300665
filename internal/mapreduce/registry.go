package mapreduce

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// The job-kind registry solves the one problem that separates the
// in-process engine from a real cluster: a Job's Map and Reduce are Go
// functions — method values of the typed task state a driver builds from
// its parameters — and functions cannot be sent to another process.
// Instead of serializing functions, each driver package registers a
// named constructor — a Kind — that rebuilds its job, task state
// included, from a small gob-encoded spec. Worker processes are re-executed copies of the
// same binary, so every init-time registration the coordinator saw is
// linked into the worker too; shipping (kind, spec) across the wire is
// then enough to reconstruct the identical Map/Reduce functions on the
// other side.

var (
	kindMu sync.RWMutex
	kinds  = map[string]func(spec []byte) (*Job, error){}
)

// Kind is a registered job constructor: a factory that builds a *Job
// from a typed spec and stamps it with the registry name, so the same
// job can be rebuilt by kind name in a worker process.
type Kind[T any] struct {
	name  string
	build func(T) *Job
}

// DefineKind registers a job constructor under a unique name, to be
// called from package init (or package-level var initialization) of the
// driver that owns the job. The build function must be deterministic: a
// worker rebuilding the job from the same spec must obtain functions
// with identical behaviour, or distributed output diverges from the
// in-process engine. Registering the same name twice panics — kinds are
// a closed, link-time registry, and a collision is a programming error.
func DefineKind[T any](name string, build func(T) *Job) Kind[T] {
	if name == "" {
		panic("mapreduce: DefineKind with empty name")
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("mapreduce: job kind %q registered twice", name))
	}
	kinds[name] = func(spec []byte) (*Job, error) {
		var v T
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&v); err != nil {
			return nil, fmt.Errorf("mapreduce: decode spec for kind %q: %w", name, err)
		}
		return build(v), nil
	}
	return Kind[T]{name: name, build: build}
}

// New builds the job from spec and stamps Kind/Spec so a distributed
// cluster can re-execute its tasks in worker processes. The spec must be
// gob-encodable (exported fields only); since spec types are fixed at
// compile time by the registering driver, an encoding failure is a
// programming error and panics.
func (k Kind[T]) New(spec T) *Job {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&spec); err != nil {
		panic(fmt.Sprintf("mapreduce: encode spec for kind %q: %v", k.name, err))
	}
	job := k.build(spec)
	job.Kind = k.name
	job.Spec = buf.Bytes()
	return job
}

// buildKindJob rebuilds a job from its registered kind and encoded spec —
// the worker-side entry into the registry.
func buildKindJob(kind string, spec []byte) (*Job, error) {
	kindMu.RLock()
	build, ok := kinds[kind]
	kindMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mapreduce: unknown job kind %q (not linked into this binary?)", kind)
	}
	return build(spec)
}
