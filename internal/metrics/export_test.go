package metrics

// Test-only exports for the external test package, which can build its
// inputs with internal/generate (an import cycle for this package).
var (
	TrianglesReference = trianglesReference
	SameTriangles      = sameTriangles
)
