//go:build congestcheck

package congest

// The congestcheck build runs every round's handlers in a seeded
// permutation of the schedule and poisons every spent word arena:
// go test -tags congestcheck ./...
func init() { permuteSchedule, poisonArena = true, true }
