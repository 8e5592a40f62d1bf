// registry.go is the model registry: the single place new memory-model
// variants are named. Every surface that accepts a model name — the
// estimator Query, sweep specs, the HTTP service, the CLIs, the litmus
// DSL's expectation clauses — resolves it through ByName, so a variant
// added with Register instantly appears everywhere with no per-surface
// code. The canonical Table 1 models and the built-in variants below
// self-register at init.
package memmodel

import (
	"fmt"
	"strings"
	"sync"
)

var registry = struct {
	sync.RWMutex
	models []Model
	byName map[string]Model // lower-cased name → model
}{byName: make(map[string]Model)}

func init() {
	for _, m := range All() {
		mustRegister(m)
	}
	mustRegister(RMO())
	mustRegister(LRO())
}

func mustRegister(m Model) {
	if err := Register(m); err != nil {
		panic(err) // unreachable: static definitions
	}
}

// Register adds a model variant to the registry, making it resolvable by
// name from every surface. Names are case-insensitive and must be unique;
// re-registering an identical definition is a no-op, while a conflicting
// one errors.
func Register(m Model) error {
	if m.name == "" {
		return fmt.Errorf("%w: register with empty name", ErrBadModel)
	}
	key := strings.ToLower(m.name)
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.byName[key]; ok {
		if prev == m {
			return nil
		}
		return fmt.Errorf("%w: model %q already registered with a different definition",
			ErrBadModel, m.name)
	}
	registry.byName[key] = m
	registry.models = append(registry.models, m)
	return nil
}

// Registered returns every registered model in registration order: the
// canonical four in strictness order, then the built-in variants, then
// anything the caller registered. The slice is a copy.
func Registered() []Model {
	registry.RLock()
	defer registry.RUnlock()
	return append([]Model(nil), registry.models...)
}

// RMO returns the RMO-style variant: every Table 1 relaxation except
// LD/ST, so a store never settles above an earlier load. This is the
// dependency-conservative reading of Sparc RMO on the paper's matrix —
// distinct from WO, which also relaxes LD/ST.
func RMO() Model {
	m, err := New("RMO", []Pair{{Store, Store}, {Store, Load}, {Load, Load}})
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}

// LRO returns the load-reordering-only variant: LD/LD and LD/ST relaxed,
// stores stay ordered — the dual of PSO (which relaxes exactly the
// store-buffer pairs ST/ST and ST/LD).
func LRO() Model {
	m, err := New("LRO", []Pair{{Load, Store}, {Load, Load}})
	if err != nil {
		panic(err) // unreachable: static definition
	}
	return m
}
