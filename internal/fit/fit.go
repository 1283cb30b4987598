// Package fit implements the failure-rate model of the paper (§IV-A).
//
// FIT (Failures In Time) is a unitless reliability metric: the expected
// number of failures per 10^9 device-hours. The paper anchors per-task rates
// to the neutron-beam measurements of Michalak et al. for a Roadrunner
// TriBlade node and scales them linearly with the memory footprint:
//
//	"if the crash failure is 2.22×10³ for 32 GBs ... then for 32 MB program
//	 input the crash failure would be 2.22, or for a task argument of 32 KB
//	 the crash failure would be 2.22×10⁻³."
//
// A task's overall rates λF(T) (crash/DUE) and λSDC(T) are the sums of its
// arguments' rates. Benchmark-level FITs are estimated the same way from the
// benchmark input size and are used to derive the user-specified threshold.
//
// The model is deliberately orthogonal to where the rates come from (paper
// §IV-A): Rates is a plain value, so system-log-derived or
// vulnerability-analysis-derived rates drop in without any other change.
package fit

import (
	"fmt"
	"math"
)

// BytesPer32GB is the reference footprint the Roadrunner node rates are
// quoted against. The paper's worked example steps 32 GB → 32 MB → 32 KB in
// exact factors of 1000 (2.22e3 → 2.22 → 2.22e-3), so the reference uses
// decimal gigabytes.
const BytesPer32GB = 32e9

// HoursPerBillion converts FIT to failures per hour: 1 FIT = 1e-9 failures/h.
const HoursPerBillion = 1e9

// Rates holds node-level failure rates in FIT per 32 GiB of memory footprint.
type Rates struct {
	// DUEPer32GB is the crash (detected-uncorrected error) FIT rate.
	DUEPer32GB float64
	// SDCPer32GB is the silent-data-corruption FIT rate.
	SDCPer32GB float64
}

// Roadrunner returns the rates used by the paper, from Michalak et al.'s
// accelerated neutron-beam assessment of a Roadrunner TriBlade node. The
// crash rate 2.22e3 FIT / 32 GiB is quoted directly in §IV-A. The paper does
// not print the SDC rate it used; Michalak et al. observed SDC rates of the
// same order as crash rates, and we default to half the crash rate (see
// DESIGN.md §2). The heuristic is agnostic to the exact value.
func Roadrunner() Rates {
	return Rates{DUEPer32GB: 2.22e3, SDCPer32GB: 1.11e3}
}

// Scale returns the rates multiplied by k. The paper's exascale projections
// use k = 10 (one order of magnitude, §V-A1 citing Shalf et al.) and k = 5.
func (r Rates) Scale(k float64) Rates {
	return Rates{DUEPer32GB: r.DUEPer32GB * k, SDCPer32GB: r.SDCPer32GB * k}
}

// TaskFIT returns the estimated (λF, λSDC) in FIT for a task whose argument
// footprint is argBytes, scaling the node rates linearly with size.
func (r Rates) TaskFIT(argBytes int64) (due, sdc float64) {
	f := float64(argBytes) / float64(BytesPer32GB)
	return r.DUEPer32GB * f, r.SDCPer32GB * f
}

// FailureProb converts a FIT rate and an exposure duration in hours into a
// failure probability, assuming a Poisson process: p = 1 - exp(-λt) with λ in
// failures/hour. For the tiny rates involved this is ≈ fitRate*1e-9*hours.
func FailureProb(fitRate, hours float64) float64 {
	if fitRate <= 0 || hours <= 0 {
		return 0
	}
	lambda := fitRate / HoursPerBillion
	return 1 - math.Exp(-lambda*hours)
}

// Task bundles the estimated rates for one task instance. It is what the
// selection heuristics consume.
type Task struct {
	// ID is the runtime-assigned task instance identifier.
	ID uint64
	// ArgBytes is the total argument footprint.
	ArgBytes int64
	// DUE and SDC are the estimated λF(T) and λSDC(T) in FIT.
	DUE, SDC float64
}

// Total returns λF(T) + λSDC(T).
func (t Task) Total() float64 { return t.DUE + t.SDC }

// Estimator turns task argument footprints into Task rate estimates and
// accumulates the benchmark-level footprint.
type Estimator struct {
	rates Rates
}

// NewEstimator returns an Estimator using the given node rates.
func NewEstimator(rates Rates) *Estimator { return &Estimator{rates: rates} }

// Estimate returns the rate estimate for a task with the given id and
// argument footprint.
func (e *Estimator) Estimate(id uint64, argBytes int64) Task {
	due, sdc := e.rates.TaskFIT(argBytes)
	return Task{ID: id, ArgBytes: argBytes, DUE: due, SDC: sdc}
}

// String implements fmt.Stringer.
func (r Rates) String() string {
	return fmt.Sprintf("Rates{DUE: %.4g FIT/32GB, SDC: %.4g FIT/32GB}", r.DUEPer32GB, r.SDCPer32GB)
}
