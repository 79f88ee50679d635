// Package fixture exercises detlint's sync.Pool rule in a model package (the
// synthetic import path places it under diablo/internal/kernel): the type
// fires wherever its name appears, while the rest of package sync stays
// usable.
package fixture

import "sync"

type cache struct {
	frames sync.Pool // want `sync.Pool in model code`
	mu     sync.Mutex
}

func freshPool() any {
	return &sync.Pool{} // want `sync.Pool in model code`
}

func (c *cache) locked(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}
