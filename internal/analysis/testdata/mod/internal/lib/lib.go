// Package lib is the unused analyzer's corpus: its names are read from
// package app, from the frozen bench package, from its own test, or not at
// all, and the want comments say which of them are reported.
package lib

// Shape is a module interface: Square's Area is reached only through it.
type Shape interface {
	Area() float64
}

// Square meets Shape.
type Square struct{ Side float64 }

// Area is read only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Asserted appears only in a blank interface assertion, which checks it
// against Shape and is read by no program.
type Asserted struct{} // want `type Asserted is unused`

// Area meets Shape.
func (Asserted) Area() float64 { return 0 }

var _ Shape = Asserted{}

// A blank variable without an interface type runs its initializer, so
// registered is read.
var _ = registered()

func registered() int { return 5 }

// Sink's Write is reached through io.Writer, which the module never names:
// app hands a Sink on as any.
type Sink struct{ n int }

// Write counts the bytes it is given.
func (s *Sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

func (s *Sink) reset() { s.n = 0 } // want `method Sink.reset is unused`

// Set is generic: app calls Add through Set[string].
type Set[T comparable] struct{ m map[T]bool }

// Add puts v in the set.
func (s *Set[T]) Add(v T) {
	if s.m == nil {
		s.m = map[T]bool{}
	}
	s.m[v] = true
}

// Has is called by nothing.
func (s *Set[T]) Has(v T) bool { return s.m[v] } // want `method Set.Has is unused`

// Used is called from app only.
func Used() int { return helper() }

func helper() int { return 1 }

// OnlyTested is read only by lib_test.go.
func OnlyTested() int { return 2 } // want `func OnlyTested is unused`

// OnlyBench is read only by the frozen bench package.
func OnlyBench() int { return 3 } // want `func OnlyBench is unused`

// Kept is read by nothing, and its suppression says why.
//
//sflint:ignore unused corpus: the suppressed case
func Kept() {}

const limit = 4 // want `const limit is unused`
