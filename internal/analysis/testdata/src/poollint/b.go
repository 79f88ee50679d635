// Suppression path: the rule is deliberately violated here, covered by a
// //simlint:allow comment and no want — RunFixture fails if the finding
// escapes suppression.
package fixture

import "sync"

type scratch struct {
	buf sync.Pool //simlint:allow detlint fixture: documents the suppression path
}
