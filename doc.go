// Package turnmodel is a Go implementation of the turn model for adaptive
// routing (Glass & Ni, ISCA 1992; retrospective ISCA 1998) together with
// everything needed to reproduce the paper's evaluation: the partially
// adaptive routing algorithms the model derives (west-first, north-last,
// negative-first, ABONF, ABOPL, p-cube), the nonadaptive baselines (xy,
// e-cube), mesh / k-ary n-cube / hypercube topologies, a cycle-accurate
// flit-level wormhole network simulator, the paper's traffic patterns,
// deadlock-freedom verification via channel dependency graphs and channel
// numberings, and adaptiveness analysis.
//
// # Quick start
//
//	mesh := turnmodel.NewMesh2D(16, 16)
//	alg, _ := turnmodel.NewRouting("west-first", mesh)
//	res := turnmodel.Simulate(turnmodel.SimConfig{
//		Routing: alg,
//		RunParams: turnmodel.SimRunParams{
//			Pattern:       turnmodel.UniformTraffic(mesh),
//			InjectionRate: 0.05,
//		},
//	})
//	fmt.Println(res)
//
// # Layout
//
// The facade re-exports the library's stable surface; the implementation
// lives in internal packages, one per subsystem:
//
//   - internal/topology: meshes, tori, hypercubes, and the Section 7
//     future-work topologies (hexagonal, octagonal, cube-connected
//     cycles)
//   - internal/turnmodel: turns, abstract cycles, channel dependency
//     graphs, channel numberings (the paper's core)
//   - internal/routing: all routing algorithms
//   - internal/network: the wormhole simulator, with fault injection and
//     a configurable routing-decision delay
//   - internal/vc: virtual-channel routing (dateline torus DOR, double-y
//     fully adaptive, CCC) and its dependency-graph verifier
//   - internal/vcnet: the flit-level virtual-channel simulator
//   - internal/traffic: workloads
//   - internal/sim: the experiment harness, the paper's figures, and the
//     extension experiments
//   - internal/adaptiveness: shortest-path counting and Section 3.4/5
//     closed forms
//
// The cmd directory holds the command-line tools (turnsim, turnsweep,
// turncheck, adaptivestats) and examples holds runnable programs built on
// this facade.
package turnmodel
