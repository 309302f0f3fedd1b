"""Hit and false-segment rules shared by the experiment scripts.

Each recording of the default mock experiment holds one true hold
``(start_s, end_s)``.  A detection is an exact hit when it found exactly one
segment and both of its boundaries lie within the tolerance of the true ones.
A segment is false when it reaches outside the true hold widened by the
margin on both sides.
"""


def boundary_errors(segment, truth):
    """Absolute start and end errors of one segment against the true hold, seconds."""
    true_start, true_end = truth
    return abs(segment.start_s - true_start), abs(segment.end_s - true_end)


def is_exact_hit(segments, truth, tolerance_s):
    return len(segments) == 1 and max(boundary_errors(segments[0], truth)) <= tolerance_s


def false_segments(segments, truth, margin_s):
    true_start, true_end = truth
    return [seg for seg in segments
            if not (true_start - margin_s <= seg.start_s and seg.end_s <= true_end + margin_s)]
