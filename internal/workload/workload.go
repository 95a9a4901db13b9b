// Package workload generates the synthetic relations and query workloads
// used by the experiments: the paper's hospital database (§2) with its exact
// marginal distributions, the running employee example (§3), and generic
// Zipf-distributed tables for the performance sweeps.
//
// Generators are driven by a seedable deterministic source (math/rand) so
// experiments are reproducible; cryptographic randomness is only used for
// keys and ciphertexts, never for data.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// HospitalSchema returns the schema of the paper's §2 example:
// (id, name, hospital, outcome).
func HospitalSchema() *relation.Schema {
	return relation.MustSchema("patients",
		relation.Column{Name: "id", Type: relation.TypeInt, Width: 8},
		relation.Column{Name: "name", Type: relation.TypeString, Width: 16},
		relation.Column{Name: "hospital", Type: relation.TypeInt, Width: 1},
		relation.Column{Name: "outcome", Type: relation.TypeString, Width: 7},
	)
}

// Paper §2 marginals: patient flows over the three hospitals and the
// fatal/healthy outcome ratio.
var (
	// HospitalFlows is the distribution of patients over hospitals 1-3.
	HospitalFlows = []float64{0.2, 0.3, 0.5}
	// OutcomeFatalRate is the marginal probability of outcome 'fatal'.
	OutcomeFatalRate = 0.08
)

// Outcome attribute values.
const (
	OutcomeFatal   = "fatal"
	OutcomeHealthy = "healthy"
)

// HospitalConfig tunes the hospital generator. The zero value uses the
// paper's marginals.
type HospitalConfig struct {
	// Patients is the table size.
	Patients int
	// Flows overrides HospitalFlows if non-nil (must sum to ~1).
	Flows []float64
	// FatalRate overrides OutcomeFatalRate if positive.
	FatalRate float64
	// FatalRateByHospital optionally gives each hospital its own fatality
	// rate (overrides FatalRate per hospital); this is the hidden
	// per-hospital statistic the paper's passive adversary reconstructs.
	FatalRateByHospital []float64
	// EnsureName, when non-empty, guarantees a patient with this name
	// exists (the "John" of the active attack).
	EnsureName string
}

// Hospital generates a patient table from the config using the given seed.
func Hospital(cfg HospitalConfig, seed int64) (*relation.Table, error) {
	if cfg.Patients <= 0 {
		return nil, fmt.Errorf("workload: hospital table needs a positive patient count, got %d", cfg.Patients)
	}
	flows := cfg.Flows
	if flows == nil {
		flows = HospitalFlows
	}
	rng := rand.New(rand.NewSource(seed))
	s := HospitalSchema()
	t := relation.NewTable(s)
	for i := 0; i < cfg.Patients; i++ {
		h := sample(rng, flows) + 1
		rate := OutcomeFatalRate
		if cfg.FatalRate > 0 {
			rate = cfg.FatalRate
		}
		if cfg.FatalRateByHospital != nil && h-1 < len(cfg.FatalRateByHospital) {
			rate = cfg.FatalRateByHospital[h-1]
		}
		outcome := OutcomeHealthy
		if rng.Float64() < rate {
			outcome = OutcomeFatal
		}
		name := PersonName(rng)
		if cfg.EnsureName != "" && i == 0 {
			name = cfg.EnsureName
		}
		err := t.Insert(relation.Tuple{
			relation.Int(int64(i + 1)),
			relation.String(name),
			relation.Int(int64(h)),
			relation.String(outcome),
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// EmployeeSchema returns the paper's §3 running example
// Emp(name, dept, salary). Widths accommodate the paper's own instance
// ("Montgomery" is 10 characters).
func EmployeeSchema() *relation.Schema {
	return relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 10},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 5},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 5},
	)
}

// Departments are the department values used by the employee generator.
var Departments = []string{"HR", "IT", "SALES", "R&D", "OPS", "LEGAL", "FIN"}

// Employees generates n employee tuples with Zipf-distributed departments
// and salaries drawn uniformly from salary bands per department.
func Employees(n int, seed int64) (*relation.Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: employee count must be non-negative, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(Departments)-1))
	t := relation.NewTable(EmployeeSchema())
	for i := 0; i < n; i++ {
		dept := Departments[zipf.Uint64()]
		salary := 1000 + rng.Int63n(99000)
		err := t.Insert(relation.Tuple{
			relation.String(PersonName(rng)),
			relation.String(dept),
			relation.Int(salary),
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// firstNames seeds the name generator; combined with a numeric suffix the
// namespace is large enough for the experiment table sizes.
var firstNames = []string{
	"Ada", "Alan", "Barbara", "Claude", "Donald", "Edsger", "Frances",
	"Grace", "John", "Ken", "Leslie", "Niklaus", "Robin", "Tony", "Whit",
}

// PersonName draws a synthetic person name of at most 10 bytes that never
// contains the core padding symbol '#'.
func PersonName(rng *rand.Rand) string {
	base := firstNames[rng.Intn(len(firstNames))]
	// Suffix keeps names distinct-ish without exceeding 10 bytes.
	return fmt.Sprintf("%s%03d", base, rng.Intn(1000))[:min(10, len(base)+3)]
}

// sample draws an index from the discrete distribution given by weights
// (assumed to sum to approximately 1; the final bucket absorbs rounding).
func sample(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// UniformInts generates a single-column table of n integers drawn uniformly
// from [0, domain), for microbenchmarks and false-positive measurements.
func UniformInts(n int, domain int64, seed int64) (*relation.Table, error) {
	s := relation.MustSchema("ints",
		relation.Column{Name: "k", Type: relation.TypeInt, Width: 19},
	)
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable(s)
	for i := 0; i < n; i++ {
		if err := t.Insert(relation.Tuple{relation.Int(rng.Int63n(domain))}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// QueryMix generates a workload of exact selects against a table: each
// query picks a random tuple and a random column and selects on that
// tuple's value, so every query has at least one hit.
func QueryMix(t *relation.Table, n int, seed int64) []relation.Eq {
	rng := rand.New(rand.NewSource(seed))
	out := make([]relation.Eq, n)
	for i := range out {
		tp := t.Tuple(rng.Intn(t.Len()))
		col := rng.Intn(t.Schema().NumColumns())
		out[i] = relation.Eq{Column: t.Schema().Columns[col].Name, Value: tp[col]}
	}
	return out
}
