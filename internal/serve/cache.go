package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/store"
)

// cachedNet is the per-model serving state: the immutable model (dense,
// convolutional or graph — each stored artifact gets its own entry
// keyed by content address, so architectures never collide), its
// shape, pooled certificate pricers, compiled adversarial fault plans,
// and the clean traces of the standard evaluation inputs. All of it is
// computed at most once per model and shared by every request —
// steady-state queries hit only caches.
type cachedNet struct {
	id    string // store ID; "" for inline (unstored) models
	model nn.Model

	shape core.Shape
	// certs pools bounds scratch around the pricers core.PricerFor
	// makes for the model: a Certifier is not concurrent-safe, so each
	// request borrows a unit.
	certs sync.Pool
	// batches pools the batched evaluators Monte Carlo shards run on
	// (a BatchPlan is not concurrent-safe either, and a sparse
	// 1024-wide model's costs ~200 KB to build).
	batches sync.Pool

	// inputsOnce guards the standard evaluation inputs and their clean
	// traces (the expensive shared reference for inject/montecarlo).
	inputsOnce sync.Once
	inputs     [][]float64
	traces     []*nn.Trace

	// plans caches compiled adversarial fault plans by distribution
	// signature. A CompiledPlan is safe for concurrent evaluation.
	plansMu sync.RWMutex
	plans   map[string]*fault.CompiledPlan
}

func newCachedNet(id string, m nn.Model) (*cachedNet, error) {
	// ShapeOfModel runs w_m over the model's distinct weights: conv
	// models get their Section VI receptive-field bounds with no dense
	// lowering anywhere in the service.
	shape := core.ShapeOfModel(m)
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	newPricer, err := core.PricerFor(m)
	if err != nil {
		return nil, err
	}
	cn := &cachedNet{
		id:    id,
		model: m,
		shape: shape,
		plans: map[string]*fault.CompiledPlan{},
	}
	cn.certs.New = func() any {
		return &boundsScratch{cert: newPricer(), synFaults: make([]int, shape.Layers()+1)}
	}
	cn.batches.New = func() any { return fault.CompileBatch(m, fault.BatchLanes) }
	return cn, nil
}

// boundsScratch is one pooled unit of bounds-path scratch: a pricer
// plus the synapse-distribution buffer, so a steady-state bounds query
// performs zero allocations in the certificate computation.
type boundsScratch struct {
	cert      core.Pricer
	synFaults []int
}

func (cn *cachedNet) getBounds() *boundsScratch  { return cn.certs.Get().(*boundsScratch) }
func (cn *cachedNet) putBounds(b *boundsScratch) { cn.certs.Put(b) }

// standardInputs returns the network's standard evaluation sample
// (metrics.StandardInputs) and its clean traces, computing both on
// first use.
func (cn *cachedNet) standardInputs() ([][]float64, []*nn.Trace) {
	cn.inputsOnce.Do(func() {
		cn.inputs = metrics.StandardInputs(cn.model.Width(0))
		cn.traces = fault.CleanTraces(cn.model, cn.inputs)
	})
	return cn.inputs, cn.traces
}

// adversarialPlan returns the compiled heaviest-weights plan for the
// distribution, compiling it at most once per distinct distribution.
func (cn *cachedNet) adversarialPlan(faults []int) *fault.CompiledPlan {
	key := faultsKey(faults)
	cn.plansMu.RLock()
	cp := cn.plans[key]
	cn.plansMu.RUnlock()
	if cp != nil {
		return cp
	}
	cn.plansMu.Lock()
	defer cn.plansMu.Unlock()
	if cp = cn.plans[key]; cp != nil {
		return cp
	}
	cp = fault.Compile(cn.model, fault.AdversarialNeuronPlan(cn.model, faults))
	cn.plans[key] = cp
	return cp
}

// plansCached reports the number of compiled plans held.
func (cn *cachedNet) plansCached() int {
	cn.plansMu.RLock()
	defer cn.plansMu.RUnlock()
	return len(cn.plans)
}

func faultsKey(faults []int) string {
	var b strings.Builder
	for i, f := range faults {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(f))
	}
	return b.String()
}

// network resolves a request's model reference: a store ID (cached
// across requests) or an inline model payload (served uncached). Both
// accept any architecture: untagged dense documents and "arch"-tagged
// conv1d/conv2d/graph documents.
func (s *Server) network(ref netRef) (*cachedNet, error) {
	switch {
	case ref.NetworkID != "" && len(ref.Network) > 0:
		return nil, badRequest("provide network_id or an inline network, not both")
	case ref.NetworkID != "":
		return s.storedNetwork(ref.NetworkID)
	case len(ref.Network) > 0:
		m, err := conv.ParseModel(ref.Network)
		if err != nil {
			return nil, badRequest(fmt.Sprintf("inline network: %v", err))
		}
		cn, err := newCachedNet("", m)
		if err != nil {
			return nil, badRequest(err.Error())
		}
		return cn, nil
	default:
		return nil, badRequest("missing network_id (or inline network)")
	}
}

// storedNetwork returns the cached serving state for a stored model,
// loading and indexing it on first use.
func (s *Server) storedNetwork(ref string) (*cachedNet, error) {
	if s.st == nil {
		return nil, &httpError{status: 503, msg: "no artifact store configured"}
	}
	entry, err := s.st.Resolve(ref)
	if err != nil {
		return nil, &httpError{status: 404, msg: err.Error()}
	}
	s.mu.RLock()
	cn := s.nets[entry.ID]
	s.mu.RUnlock()
	if cn != nil {
		return cn, nil
	}
	m, entry, err := s.st.Model(entry.ID)
	if err != nil {
		return nil, &httpError{status: 404, msg: err.Error()}
	}
	return s.cacheNetwork(entry.ID, m)
}

// cacheNetwork returns the cached serving state of stored model id,
// indexing m under id unless an entry exists already. The upload route
// seeds the cache through it with the model it just parsed, so the
// first query never re-reads the stored document.
func (s *Server) cacheNetwork(id string, m nn.Model) (*cachedNet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cn := s.nets[id]; cn != nil {
		return cn, nil
	}
	cn, err := newCachedNet(id, m)
	if err != nil {
		return nil, &httpError{status: 422, msg: fmt.Sprintf("stored network %s: %v", store.ShortID(id), err)}
	}
	s.nets[id] = cn
	return cn, nil
}

// cachedNetworks reports the number of networks currently cached.
func (s *Server) cachedNetworks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nets)
}
