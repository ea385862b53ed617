let used_elsewhere x = x + 1
let granted x = x - 1
