package query

// MergePlans folds per-shard plan summaries into one coordinator-side
// view of a scattered conjunction. Each shard plans independently
// against its own memo, so conjunct *order* may differ per shard —
// that is the point of per-shard planning, a conjunct that is selective
// on one partition's skew may not be on another's. The merged summary
// therefore reports per-conjunct totals, ordered by first appearance
// across the shards (shard 0's order first): Tuples and the observed
// Tested/Hits counters sum, and the selectivity estimate is the
// tuple-weighted mean of the shard estimates (a shard's estimate speaks
// for its share of the table). EstKnown only survives if every shard
// that planned the conjunct had observations for it; Source is taken
// from the first shard that planned it, since shards may legitimately
// serve the same conjunct differently.
func MergePlans(infos []*PlanInfo) *PlanInfo {
	merged := &PlanInfo{}
	type acc struct {
		step   StepInfo
		estSum float64
		weight float64
	}
	var order []int
	byIndex := map[int]*acc{}
	for _, pi := range infos {
		if pi == nil {
			continue
		}
		merged.Tuples += pi.Tuples
		w := float64(pi.Tuples)
		for _, st := range pi.Steps {
			a, ok := byIndex[st.Index]
			if !ok {
				a = &acc{step: StepInfo{Index: st.Index, Source: st.Source, EstKnown: true}}
				byIndex[st.Index] = a
				order = append(order, st.Index)
			}
			a.step.Tested += st.Tested
			a.step.Hits += st.Hits
			a.step.EstKnown = a.step.EstKnown && st.EstKnown
			a.estSum += st.Est * w
			a.weight += w
		}
	}
	for _, idx := range order {
		a := byIndex[idx]
		if a.weight > 0 {
			a.step.Est = a.estSum / a.weight
		}
		merged.Steps = append(merged.Steps, a.step)
	}
	return merged
}
