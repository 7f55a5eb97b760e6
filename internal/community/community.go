// Package community models a Web community (paper §3): the set P of pages
// on a topic, the users U interested in it, the monitored subset Um over
// which popularity is measured, visit budgets, and page lifetime. It
// provides the paper's default community (§6.1) and the scaling rules used
// by the robustness sweeps of Section 7.
package community

import (
	"fmt"
	"math"
)

// DaysPerYear converts the paper's lifetime figures (years) into the
// simulator's discrete unit of one day.
const DaysPerYear = 365

// Config describes a Web community. All rates are per day, matching the
// paper's "about one query per user per day" calibration.
type Config struct {
	// Pages is n = |P|, the number of pages on the topic.
	Pages int
	// Users is u = |U|, the number of users interested in the topic.
	Users int
	// MonitoredUsers is m = |Um|, the subset over which awareness and
	// popularity are measured.
	MonitoredUsers int
	// TotalVisitsPerDay is vu, visits per day across all users.
	TotalVisitsPerDay float64
	// LifetimeDays is l, the expected page lifetime. Retirement is a
	// Poisson process with rate 1/l per page.
	LifetimeDays float64
	// AttentionExponent is the rank-bias power-law exponent γ (3/2 in
	// the paper). Zero means the default.
	AttentionExponent float64
}

// Default returns the paper's default Web community (§6.1):
// n=10,000 pages, u=1,000 users, m=100 monitored, vu=1,000 visits/day,
// l=1.5 years.
func Default() Config {
	return Config{
		Pages:             10000,
		Users:             1000,
		MonitoredUsers:    100,
		TotalVisitsPerDay: 1000,
		LifetimeDays:      1.5 * DaysPerYear,
	}
}

// Scaled returns a community of n pages with the paper's default
// proportions (§7.1): u/n = 10%, m/u = 10%, vu/u = 1 visit/user/day, and
// l = 1.5 years.
func Scaled(n int) Config {
	u := n / 10
	if u < 1 {
		u = 1
	}
	m := u / 10
	if m < 1 {
		m = 1
	}
	return Config{
		Pages:             n,
		Users:             u,
		MonitoredUsers:    m,
		TotalVisitsPerDay: float64(u),
		LifetimeDays:      1.5 * DaysPerYear,
	}
}

// MonitoredVisitsPerDay is v = vu·(m/u), the visit budget of the monitored
// sample (Definition 3.1 context).
func (c Config) MonitoredVisitsPerDay() float64 {
	if c.Users == 0 {
		return 0
	}
	return c.TotalVisitsPerDay * float64(c.MonitoredUsers) / float64(c.Users)
}

// RetirementRate is λ = 1/l, the per-page per-day probability of
// retirement.
func (c Config) RetirementRate() float64 {
	if c.LifetimeDays <= 0 {
		return 0
	}
	return 1 / c.LifetimeDays
}

// Exponent returns the attention exponent, defaulting to 3/2.
func (c Config) Exponent() float64 {
	if c.AttentionExponent <= 0 {
		return 1.5
	}
	return c.AttentionExponent
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Pages <= 0:
		return fmt.Errorf("community: need at least one page, got %d", c.Pages)
	case c.Users <= 0:
		return fmt.Errorf("community: need at least one user, got %d", c.Users)
	case c.MonitoredUsers <= 0:
		return fmt.Errorf("community: need at least one monitored user, got %d", c.MonitoredUsers)
	case c.MonitoredUsers > c.Users:
		return fmt.Errorf("community: monitored users %d exceed users %d", c.MonitoredUsers, c.Users)
	case c.TotalVisitsPerDay < 0 || math.IsNaN(c.TotalVisitsPerDay) || math.IsInf(c.TotalVisitsPerDay, 0):
		return fmt.Errorf("community: invalid visit budget %v", c.TotalVisitsPerDay)
	case c.LifetimeDays <= 0:
		return fmt.Errorf("community: page lifetime must be positive, got %v days", c.LifetimeDays)
	case c.AttentionExponent < 0:
		return fmt.Errorf("community: negative attention exponent %v", c.AttentionExponent)
	}
	return nil
}

// String summarizes the configuration compactly for experiment logs.
func (c Config) String() string {
	return fmt.Sprintf("community{n=%d u=%d m=%d vu=%.0f/day v=%.1f/day l=%.2fy}",
		c.Pages, c.Users, c.MonitoredUsers, c.TotalVisitsPerDay,
		c.MonitoredVisitsPerDay(), c.LifetimeDays/DaysPerYear)
}

// WithLifetimeYears returns a copy with l replaced.
func (c Config) WithLifetimeYears(years float64) Config {
	c.LifetimeDays = years * DaysPerYear
	return c
}

// WithTotalVisits returns a copy with vu replaced, holding u = vu (the
// paper's vu/u = 1 rule for Figure 7(c)) and m/u = 10%.
func (c Config) WithTotalVisits(vu float64) Config {
	c.TotalVisitsPerDay = vu
	u := int(vu)
	if u < 1 {
		u = 1
	}
	c.Users = u
	m := u / 10
	if m < 1 {
		m = 1
	}
	c.MonitoredUsers = m
	return c
}

// WithUsers returns a copy with u replaced, holding vu fixed and keeping
// m/u = 10% (the Figure 7(d) sweep).
func (c Config) WithUsers(u int) Config {
	c.Users = u
	m := u / 10
	if m < 1 {
		m = 1
	}
	c.MonitoredUsers = m
	return c
}
