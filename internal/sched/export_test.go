package sched

// ScheduleSliced is ScheduleDTS computing its slices whatever the budget.
var ScheduleSliced = scheduleSliced
