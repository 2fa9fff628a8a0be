package core

// Knapsack is the §3 baseline formulation solved exactly: references are
// objects sized by their full register requirement ν and valued by the
// memory accesses full replacement eliminates; the register file is the
// knapsack. It maximizes eliminated accesses by dynamic programming,
// ignoring — deliberately, as the paper argues — both inter-reference
// dependences and the opportunity for concurrent RAM accesses.
type Knapsack struct{}

// Name implements Allocator.
func (Knapsack) Name() string { return "KS-RA" }

// Allocate implements Allocator.
func (Knapsack) Allocate(p *Problem) (*Allocation, error) {
	a := newAllocation(p, "KS-RA")
	capacity := p.Rmax - a.Total()
	n := len(p.Infos)
	// 0/1 knapsack over the incremental cost ν-1 of fully replacing each
	// reference beyond its staging register.
	cost := make([]int, n)
	value := make([]int, n)
	for i, inf := range p.Infos {
		cost[i] = inf.Nu - 1
		value[i] = inf.SavedReads
	}
	// dp[i][c]: best value using references i.. with c capacity left.
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, capacity+1)
	}
	for i := n - 1; i >= 0; i-- {
		for c := 0; c <= capacity; c++ {
			dp[i][c] = dp[i+1][c]
			if cost[i] <= c {
				if take := dp[i+1][c-cost[i]] + value[i]; take > dp[i][c] {
					dp[i][c] = take
				}
			}
		}
	}
	c := capacity
	for i := 0; i < n; i++ {
		// A reference is taken when taking it is at least as good as not;
		// prefer taking on ties so zero-cost full replacements always land.
		if cost[i] <= c && dp[i+1][c-cost[i]]+value[i] >= dp[i][c] && dp[i][c] != dp[i+1][c] || cost[i] == 0 {
			inf := p.Infos[i]
			a.Beta[i] = inf.Nu
			c -= cost[i]
			a.tracef("select %s: value %d for %d registers", inf.Key(), value[i], cost[i])
		}
	}
	a.tracef("optimal eliminated accesses: %d (capacity %d, %d unused)", dp[0][capacity], capacity, c)
	return a, a.Validate(p)
}
