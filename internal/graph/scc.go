package graph

// SCC computes the strongly connected components of a directed graph given
// as an adjacency list over nodes 0..n-1, using Tarjan's algorithm with an
// explicit stack (no recursion, safe for large data connection graphs).
// It returns the component index of every node; component indices are
// assigned in reverse topological order of the condensation (comp[u] >
// comp[v] whenever there is an edge u->v between different components), so
// "number of components - 1 - comp" is a valid topological index of the
// condensation.
func SCC(adj [][]int32) (comp []int32, nComp int) {
	n := len(adj)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}

	var (
		stack    []int32 // Tarjan stack
		counter  int32
		compCnt  int32
		callNode []int32 // explicit DFS call stack: node
		callEdge []int   // explicit DFS call stack: next edge index
	)

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callNode = append(callNode[:0], int32(root))
		callEdge = append(callEdge[:0], 0)
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(callNode) > 0 {
			v := callNode[len(callNode)-1]
			ei := callEdge[len(callEdge)-1]
			if ei < len(adj[v]) {
				callEdge[len(callEdge)-1]++
				w := adj[v][ei]
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callNode = append(callNode, w)
					callEdge = append(callEdge, 0)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Post-order: pop v.
			callNode = callNode[:len(callNode)-1]
			callEdge = callEdge[:len(callEdge)-1]
			if len(callNode) > 0 {
				parent := callNode[len(callNode)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCnt
					if w == v {
						break
					}
				}
				compCnt++
			}
		}
	}
	return comp, int(compCnt)
}
