package shuffle

// victimCursor finds the successive eviction victims of one merge into a
// full view: each call to next returns the first position holding the
// greatest age, as a fresh scan would. The zero value starts a merge.
//
// It relies on what a merge does to a full view between two calls: at
// most one write, to the position next last returned (the newcomer that
// took the victim's place). A newcomer admitted by age is no older than
// its victim, so the greatest age — the level — never rises, and the
// victims of one level lie left to right. The cursor therefore resumes
// at the last victim instead of rescanning. Its invariant: every
// position left of pos holds an age strictly below level, and no
// position other than pos holds one above it. Only pos itself can exceed
// the level — a seeding merge replaces the victim whatever the
// newcomer's age — and then it is the new, sole greatest. A full rescan
// happens only when the level has no position left, so a merge of l
// entries into a view of v costs O(v + l) while a level lasts, against
// O(v·l) for a scan per eviction.
type victimCursor struct {
	level int32
	pos   int
	valid bool
}

// next returns the position of the current victim in ages, which must be
// non-empty.
func (vc *victimCursor) next(ages []int32) int {
	if vc.valid {
		level := vc.level
		for j := vc.pos; j < len(ages); j++ {
			if ages[j] >= level {
				vc.pos = j
				return j
			}
		}
	}
	oldest, level := 0, ages[0]
	for j, age := range ages {
		if age > level {
			oldest, level = j, age
		}
	}
	vc.level, vc.pos, vc.valid = level, oldest, true
	return oldest
}
