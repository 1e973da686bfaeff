package httpapi

import (
	"sync"
	"time"

	"repro/internal/service"
)

// Tenancy. Requests without the TenantHeader share the anonymous tenant
// "" — multi-tenant deployments should make the header mandatory at their
// edge.
const (
	// TenantHeader names the tenant-identifying request header.
	TenantHeader = "X-Tenant"
	// MaxTenants bounds the tracked tenant buckets. At the bound, requests
	// from unseen tenants are denied rather than letting a tenant-spraying
	// client grow the map without limit.
	MaxTenants = 10000
)

// QuotaConfig tunes per-tenant request quotas on the optimization
// endpoints. The zero value disables quotas entirely.
type QuotaConfig struct {
	// RatePerSec is each tenant's sustained request budget. Zero or
	// negative disables quotas. Batch requests charge one token per
	// statement, not one per HTTP request.
	RatePerSec float64
	// Burst is each tenant's token-bucket capacity (0: RatePerSec/4,
	// minimum 1) — also the largest batch a tenant can submit at once.
	Burst float64
}

// quotas holds one token bucket per tenant. Buckets are created on first
// sight and live for the server's lifetime; MaxTenants caps the map.
type quotas struct {
	cfg    QuotaConfig
	mu     sync.Mutex
	byTen  map[string]*service.TokenBucket
	denied uint64
}

func newQuotas(cfg QuotaConfig) *quotas {
	if cfg.RatePerSec <= 0 {
		return nil
	}
	if cfg.Burst <= 0 {
		cfg.Burst = max(cfg.RatePerSec/4, 1)
	}
	return &quotas{cfg: cfg, byTen: make(map[string]*service.TokenBucket)}
}

// allow charges n tokens to tenant. When the tenant's bucket is empty it
// charges nothing and returns the back-off hint for Retry-After.
func (qs *quotas) allow(tenant string, n float64) (ok bool, retryAfter time.Duration) {
	qs.mu.Lock()
	b := qs.byTen[tenant]
	if b == nil {
		if len(qs.byTen) >= MaxTenants {
			qs.denied++
			qs.mu.Unlock()
			return false, time.Second
		}
		b = service.NewTokenBucket(qs.cfg.RatePerSec, qs.cfg.Burst)
		qs.byTen[tenant] = b
	}
	qs.mu.Unlock()
	ok, retryAfter = b.Allow(time.Now(), n)
	if !ok {
		qs.mu.Lock()
		qs.denied++
		qs.mu.Unlock()
	}
	return ok, retryAfter
}

// snapshot reports the quota layer's own counters for /v1/stats.
func (qs *quotas) snapshot() quotaSnapshot {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return quotaSnapshot{
		Tenants:    len(qs.byTen),
		Denied:     qs.denied,
		RatePerSec: qs.cfg.RatePerSec,
		Burst:      qs.cfg.Burst,
		Header:     TenantHeader,
	}
}

type quotaSnapshot struct {
	Tenants    int     `json:"tenants"`
	Denied     uint64  `json:"denied"`
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
	Header     string  `json:"header"`
}
