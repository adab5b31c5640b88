package nephele

import "fmt"

// SourceFunc adapts a generator function into a TaskFactory. The function
// receives an emit callback writing to output gate 0 and runs once per
// subtask.
func SourceFunc(fn func(ctx *TaskContext, emit func([]byte) error) error) TaskFactory {
	return func() Task { return sourceTask{fn} }
}

type sourceTask struct {
	fn func(*TaskContext, func([]byte) error) error
}

func (t sourceTask) Run(ctx *TaskContext) error {
	if ctx.NumOutputs() == 0 {
		return fmt.Errorf("nephele: source task %s has no output", ctx.Vertex)
	}
	emit := func(rec []byte) error { return ctx.Output(0).WriteRecord(rec) }
	return t.fn(ctx, emit)
}

// MapFunc adapts a per-record transformation into a TaskFactory: every
// input record (from all input gates, merged) is passed to fn, which may
// emit any number of output records to gate 0.
func MapFunc(fn func(rec []byte, emit func([]byte) error) error) TaskFactory {
	return func() Task { return mapTask{fn} }
}

type mapTask struct {
	fn func([]byte, func([]byte) error) error
}

func (t mapTask) Run(ctx *TaskContext) error {
	if ctx.NumInputs() == 0 || ctx.NumOutputs() == 0 {
		return fmt.Errorf("nephele: map task %s needs input and output", ctx.Vertex)
	}
	emit := func(rec []byte) error { return ctx.Output(0).WriteRecord(rec) }
	return eachInput(ctx, func(rec []byte) error { return t.fn(rec, emit) })
}

// SinkFunc adapts a consumer function into a TaskFactory: it is called once
// per input record.
func SinkFunc(fn func(rec []byte) error) TaskFactory {
	return func() Task { return sinkTask{fn} }
}

type sinkTask struct {
	fn func([]byte) error
}

func (t sinkTask) Run(ctx *TaskContext) error {
	if ctx.NumInputs() == 0 {
		return fmt.Errorf("nephele: sink task %s has no input", ctx.Vertex)
	}
	return eachInput(ctx, t.fn)
}

// eachInput passes every record of every input gate, gate by gate, to fn.
func eachInput(ctx *TaskContext, fn func([]byte) error) error {
	for _, gate := range ctx.inputs {
		if err := gate.forEach(fn); err != nil {
			return err
		}
	}
	return nil
}
