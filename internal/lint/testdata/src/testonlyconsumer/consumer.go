// Package testonlyconsumer stands in for a separate module (such as
// benchmark/) whose uses of testonlypass count as non-test uses.
package testonlyconsumer

import "amcast/internal/lint/testdata/src/testonlypass"

// Use exercises testonlypass the way a consumer module would.
func Use() int {
	sq := testonlypass.Square{Side: 2}
	return testonlypass.Run(testonlypass.Spec{}) + testonlypass.ConsumerOnly() +
		testonlypass.Total([]testonlypass.Shape{sq})
}
