package arch

const lanes = 4
