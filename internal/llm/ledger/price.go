package ledger

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Price is the estimated cost of one model in USD per million tokens,
// split by direction (prompt vs completion), matching how commercial
// endpoints bill.
type Price struct {
	InPerM  float64 `json:"in_per_m"`
	OutPerM float64 `json:"out_per_m"`
}

// PriceTable maps model names to prices. The reserved key "*" is the
// fallback applied to models the table does not name, so unknown or
// simulated models still produce a nonzero (clearly estimated) figure
// instead of silently costing nothing.
type PriceTable map[string]Price

// DefaultPrices is the built-in table: the OpenAI-compatible models the
// paper's evaluation used, plus a conservative fallback for everything
// else (including the simulated expert). Override with -llm-price-table.
func DefaultPrices() PriceTable {
	return PriceTable{
		"gpt-4-1106-preview": {InPerM: 10.00, OutPerM: 30.00},
		"gpt-4":              {InPerM: 30.00, OutPerM: 60.00},
		"gpt-4o":             {InPerM: 2.50, OutPerM: 10.00},
		"gpt-4o-mini":        {InPerM: 0.15, OutPerM: 0.60},
		"gpt-3.5-turbo":      {InPerM: 0.50, OutPerM: 1.50},
		"*":                  {InPerM: 0.50, OutPerM: 1.50},
	}
}

// Estimate returns the estimated USD cost of one call. Models absent
// from the table use the "*" fallback; with no fallback either, the
// cost is 0 (tokens are still accounted).
func (t PriceTable) Estimate(model string, tokensIn, tokensOut int) float64 {
	p, ok := t[model]
	if !ok {
		p, ok = t["*"]
		if !ok {
			return 0
		}
	}
	return (float64(tokensIn)*p.InPerM + float64(tokensOut)*p.OutPerM) / 1e6
}

// ParsePriceTable decodes a user-supplied price-table JSON, either the
// raw map form {"model": {"in_per_m": ..., "out_per_m": ...}} or
// wrapped as {"prices": {...}}. Entries are validated (no negative
// rates); models missing from the override keep no built-in price, so
// a table that wants the defaults must include them.
func ParsePriceTable(data []byte) (PriceTable, error) {
	// Try the wrapped form first: {"prices": {...}} would otherwise
	// decode as a raw map with a zero-rate "prices" model.
	var wrapped struct {
		Prices PriceTable `json:"prices"`
	}
	var t PriceTable
	if err := json.Unmarshal(data, &wrapped); err == nil && wrapped.Prices != nil {
		t = wrapped.Prices
	} else if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("ledger: price table: %v", err)
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("ledger: price table is empty")
	}
	for model, p := range t {
		if strings.TrimSpace(model) == "" {
			return nil, fmt.Errorf("ledger: price table has an empty model name")
		}
		if p.InPerM < 0 || p.OutPerM < 0 {
			return nil, fmt.Errorf("ledger: price table: model %q has a negative rate", model)
		}
	}
	return t, nil
}
