package community

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultMatchesPaper(t *testing.T) {
	c := Default()
	if c.Pages != 10000 || c.Users != 1000 || c.MonitoredUsers != 100 {
		t.Fatalf("default sizes wrong: %+v", c)
	}
	if c.TotalVisitsPerDay != 1000 {
		t.Fatalf("vu = %v", c.TotalVisitsPerDay)
	}
	if math.Abs(c.LifetimeDays-1.5*DaysPerYear) > 1e-9 {
		t.Fatalf("lifetime = %v days", c.LifetimeDays)
	}
	// v = vu * m/u = 1000 * 0.1 = 100 (paper §6.1).
	if got := c.MonitoredVisitsPerDay(); math.Abs(got-100) > 1e-12 {
		t.Fatalf("v = %v, want 100", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
}

func TestScaledProportions(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		c := Scaled(n)
		if c.Pages != n {
			t.Fatalf("Scaled(%d).Pages = %d", n, c.Pages)
		}
		if c.Users != n/10 {
			t.Errorf("Scaled(%d).Users = %d", n, c.Users)
		}
		if c.MonitoredUsers != n/100 {
			t.Errorf("Scaled(%d).Monitored = %d", n, c.MonitoredUsers)
		}
		if c.TotalVisitsPerDay != float64(n/10) {
			t.Errorf("Scaled(%d).vu = %v", n, c.TotalVisitsPerDay)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Scaled(%d) invalid: %v", n, err)
		}
	}
	// Tiny communities clamp to at least one user/monitored user.
	c := Scaled(5)
	if c.Users < 1 || c.MonitoredUsers < 1 {
		t.Fatalf("tiny community under-clamped: %+v", c)
	}
}

func TestScaledMatchesDefaultAt10000(t *testing.T) {
	if Scaled(10000) != Default() {
		t.Fatalf("Scaled(10000) = %+v != Default() = %+v", Scaled(10000), Default())
	}
}

func TestRetirementRate(t *testing.T) {
	c := Default()
	want := 1 / (1.5 * DaysPerYear)
	if got := c.RetirementRate(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
	if (Config{LifetimeDays: 0}).RetirementRate() != 0 {
		t.Error("zero lifetime should give zero rate, not Inf")
	}
}

func TestExponentDefault(t *testing.T) {
	if got := Default().Exponent(); got != 1.5 {
		t.Fatalf("default exponent = %v", got)
	}
	c := Default()
	c.AttentionExponent = 2.0
	if got := c.Exponent(); got != 2.0 {
		t.Fatalf("explicit exponent = %v", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := Default()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no pages", func(c *Config) { c.Pages = 0 }},
		{"negative pages", func(c *Config) { c.Pages = -1 }},
		{"no users", func(c *Config) { c.Users = 0 }},
		{"no monitored", func(c *Config) { c.MonitoredUsers = 0 }},
		{"monitored exceed users", func(c *Config) { c.MonitoredUsers = c.Users + 1 }},
		{"negative visits", func(c *Config) { c.TotalVisitsPerDay = -5 }},
		{"NaN visits", func(c *Config) { c.TotalVisitsPerDay = math.NaN() }},
		{"Inf visits", func(c *Config) { c.TotalVisitsPerDay = math.Inf(1) }},
		{"zero lifetime", func(c *Config) { c.LifetimeDays = 0 }},
		{"negative exponent", func(c *Config) { c.AttentionExponent = -1 }},
	}
	for _, tc := range cases {
		c := good
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
	}
}

func TestString(t *testing.T) {
	s := Default().String()
	for _, frag := range []string{"n=10000", "u=1000", "m=100", "1.50y"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestWithPages(t *testing.T) {
	c := Default().WithPages(500)
	if c.Pages != 500 || c.Users != 1000 {
		t.Fatalf("WithPages changed more than pages: %+v", c)
	}
}

func TestWithLifetimeYears(t *testing.T) {
	c := Default().WithLifetimeYears(3)
	if math.Abs(c.LifetimeDays-3*DaysPerYear) > 1e-9 {
		t.Fatalf("lifetime = %v", c.LifetimeDays)
	}
}

func TestWithTotalVisitsKeepsRatios(t *testing.T) {
	c := Default().WithTotalVisits(100000)
	if c.TotalVisitsPerDay != 100000 {
		t.Fatalf("vu = %v", c.TotalVisitsPerDay)
	}
	if c.Users != 100000 {
		t.Fatalf("u = %d, want vu/u=1", c.Users)
	}
	if c.MonitoredUsers != 10000 {
		t.Fatalf("m = %d, want 10%% of u", c.MonitoredUsers)
	}
	// v stays at 10% of vu.
	if got := c.MonitoredVisitsPerDay(); math.Abs(got-10000) > 1e-9 {
		t.Fatalf("v = %v", got)
	}
	// Tiny budgets clamp.
	c = Default().WithTotalVisits(0.5)
	if err := c.Validate(); err != nil {
		t.Fatalf("tiny budget invalid: %v", err)
	}
}

func TestWithUsersHoldsVisitBudget(t *testing.T) {
	c := Default().WithUsers(100000)
	if c.Users != 100000 || c.MonitoredUsers != 10000 {
		t.Fatalf("users not applied: %+v", c)
	}
	if c.TotalVisitsPerDay != 1000 {
		t.Fatalf("vu changed: %v", c.TotalVisitsPerDay)
	}
	// v = 1000 * 10000/100000 = 100 — fixed across the Figure 7(d) sweep.
	if got := c.MonitoredVisitsPerDay(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("v = %v, want 100", got)
	}
}

// WithPages returns a copy with n replaced (other fields untouched).
func (c Config) WithPages(n int) Config { c.Pages = n; return c }
