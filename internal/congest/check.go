//go:build congestcheck

package congest

// The congestcheck build runs every round's handlers in a seeded
// permutation of the schedule: go test -tags congestcheck ./...
func init() { permuteSchedule = true }
