package obs

// IntFuncMetric exposes a derived int64 value (e.g. "buffers in use" =
// gets - releases) computed at snapshot time.
type IntFuncMetric struct{ fn func() int64 }

// Value evaluates the function.
func (m *IntFuncMetric) Value() int64 { return m.fn() }

func (m *IntFuncMetric) jsonValue() any { return m.fn() }

// FloatFuncMetric exposes a derived float64 value (e.g. a compression
// ratio) computed at snapshot time.
type FloatFuncMetric struct{ fn func() float64 }

// Value evaluates the function.
func (m *FloatFuncMetric) Value() float64 { return m.fn() }

func (m *FloatFuncMetric) jsonValue() any { return finite(m.fn()) }

// IntFunc registers a derived int64 metric under the scope's prefix + name.
// fn must be safe for concurrent calls; it runs at snapshot time.
func (s *Scope) IntFunc(name string, fn func() int64) *IntFuncMetric {
	m := &IntFuncMetric{fn: fn}
	if s == nil {
		return m
	}
	return attach(s.reg, s.prefix+"."+name, m)
}

// FloatFunc registers a derived float64 metric under the scope's prefix +
// name. fn must be safe for concurrent calls; it runs at snapshot time.
func (s *Scope) FloatFunc(name string, fn func() float64) *FloatFuncMetric {
	m := &FloatFuncMetric{fn: fn}
	if s == nil {
		return m
	}
	return attach(s.reg, s.prefix+"."+name, m)
}
